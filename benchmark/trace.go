package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed interval of host time seen from outside the
// program: a call the benchmark made into a layer. Parent is the index
// of the enclosing span in the same file (-1 at the top), Op numbers
// the operation the span belongs to.
type span struct {
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
	Op      int    `json:"op"`
}

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, so untraced code paths call it unconditionally.
type recorder struct {
	origin time.Time
	spans  []span
	stack  []int
	op     int
}

func newRecorder() *recorder { return &recorder{origin: time.Now()} }

// begin opens a span under the innermost open one and returns its id.
func (r *recorder) begin(name string) int {
	if r == nil {
		return -1
	}
	parent := -1
	if n := len(r.stack); n > 0 {
		parent = r.stack[n-1]
	}
	r.spans = append(r.spans, span{Name: name, Parent: parent, Op: r.op, StartNS: time.Since(r.origin).Nanoseconds()})
	id := len(r.spans) - 1
	r.stack = append(r.stack, id)
	return id
}

// end closes the innermost open span, which must be id.
func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	r.spans[id].EndNS = time.Since(r.origin).Nanoseconds()
	if n := len(r.stack); n == 0 || r.stack[n-1] != id {
		panic("benchmark: spans closed out of order")
	}
	r.stack = r.stack[:len(r.stack)-1]
}

func (r *recorder) rename(id int, name string) { r.spans[id].Name = name }

func (r *recorder) nextOp() {
	if r != nil {
		r.op++
	}
}

func (s span) seconds() float64 { return float64(s.EndNS-s.StartNS) / 1e9 }

// selfSeconds returns each span's duration minus the part its children
// cover. Children of one span never overlap: there is one client.
func selfSeconds(spans []span) []float64 {
	self := make([]float64, len(spans))
	for i, s := range spans {
		self[i] += s.seconds()
		if s.Parent >= 0 {
			self[s.Parent] -= s.seconds()
		}
	}
	return self
}

// traceFile is what -trace 1 writes: the spans of one workload's traced
// run with the fingerprint of the run that produced them.
type traceFile struct {
	Env      envInfo  `json:"env"`
	Workload string   `json:"workload"`
	Quick    bool     `json:"quick"`
	Digest   string   `json:"sim_digest"`
	Samples  sampleNs `json:"samples"`
	Spans    []span   `json:"spans"`
}

// sampleNs counts the steps behind each percentile the traced run
// reports, so a reader can tell a p90 over 14 steps from one over 140.
type sampleNs struct {
	ICSteps     int `json:"ic_steps"`
	BESteps     int `json:"be_steps"`
	TopOffSteps int `json:"topoff_steps"`
}

func writeTrace(dir string, tf *traceFile) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+tf.Workload+".json")
	data, err := json.MarshalIndent(tf, "", " ")
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}
