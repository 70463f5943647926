package mapred

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/corrupt"
)

// TestEngineConfigValidation drives every rejected knob value through
// both execution paths (the framework run and the in-memory local run)
// and checks that the typed error names the offending field.
func TestEngineConfigValidation(t *testing.T) {
	cases := []struct {
		name   string
		field  string
		plan   *corrupt.Plan // registered on the cluster when non-nil
		mutate func(e *Engine)
	}{
		{"model home outside view", "ModelHome", nil,
			func(e *Engine) { e.ModelHome = 99 }},
		{"negative model home", "ModelHome", nil,
			func(e *Engine) { e.ModelHome = -1 }},
		{"no model sources", "ModelSources", nil,
			func(e *Engine) { e.ModelSources = 0 }},
		{"negative fail period", "FailEveryNthMapTask", nil,
			func(e *Engine) { e.FailEveryNthMapTask = -3 }},
		{"negative straggle period", "StraggleEveryNthMapTask", nil,
			func(e *Engine) { e.StraggleEveryNthMapTask = -1 }},
		{"negative straggler slowdown", "StragglerSlowdown", nil,
			func(e *Engine) { e.StragglerSlowdown = -2 }},
		{"straggler speedup", "StragglerSlowdown", nil,
			func(e *Engine) { e.StraggleEveryNthMapTask = 2; e.StragglerSlowdown = 0.5 }},
		{"negative workers", "Workers", nil,
			func(e *Engine) { e.Workers = -1 }},
		// Verified transfers are priced by the bottleneck model only, so
		// max-min sharing cannot be honoured once bit-error windows make
		// verification engage.
		{"fair sharing under verified bit-error windows", "FairSharingNetwork",
			&corrupt.Plan{Events: []corrupt.Event{{Kind: corrupt.KindTransfer, Node: 1, Start: 0, End: 1, Rate: 0.5, Seed: 1}}},
			func(e *Engine) { e.FairSharingNetwork = true; e.IntegrityChecks = true }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := testCluster()
			c.SetCorruptionPlan(tc.plan)
			in := textInput(c, "a b", "c")
			job := wordCountJob(false)

			check := func(what string, err error) {
				t.Helper()
				var cfgErr *ConfigError
				if !errors.As(err, &cfgErr) {
					t.Fatalf("%s: err = %v, want *ConfigError", what, err)
				}
				if cfgErr.Field != tc.field {
					t.Fatalf("%s: ConfigError.Field = %q, want %q (%v)", what, cfgErr.Field, tc.field, err)
				}
			}

			e := NewEngine(c)
			tc.mutate(e)
			_, _, err := e.Run(job, in, nil)
			check("Run", err)

			e = NewEngine(c)
			tc.mutate(e)
			_, _, err = e.RunLocal(job, in, nil)
			check("RunLocal", err)
		})
	}
}

// TestEngineConfigAcceptsEdgeValues pins the boundary of the valid
// range: zero periods disable injection, a 1x "slowdown" is legal (and
// pointless), and larger slowdowns pass through unchanged.
func TestEngineConfigAcceptsEdgeValues(t *testing.T) {
	c := testCluster()
	e := NewEngine(c)
	e.StraggleEveryNthMapTask = 2
	e.StragglerSlowdown = 1
	if _, _, err := e.Run(wordCountJob(false), textInput(c, "a b", "c"), nil); err != nil {
		t.Fatalf("edge-valid config rejected: %v", err)
	}
}

// distinctMetrics fills every Metrics field with a distinct non-zero
// value via reflection, so the Add/Sub round-trip below exercises a
// newly added field automatically — and fails loudly on a field kind
// the fill (and therefore Add and Sub) does not know how to handle.
func distinctMetrics(t *testing.T, seed int64) Metrics {
	t.Helper()
	var m Metrics
	v := reflect.ValueOf(&m).Elem()
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		val := seed + int64(i) + 1
		switch f.Kind() {
		case reflect.Int, reflect.Int64:
			f.SetInt(val)
		case reflect.Float64:
			f.SetFloat(float64(val))
		default:
			t.Fatalf("Metrics.%s has kind %s: teach Add, Sub and this test about it",
				v.Type().Field(i).Name, f.Kind())
		}
	}
	return m
}

// driftedFields names the fields on which two Metrics values disagree.
func driftedFields(a, b Metrics) []string {
	va, vb := reflect.ValueOf(a), reflect.ValueOf(b)
	var fields []string
	for i := 0; i < va.NumField(); i++ {
		if !va.Field(i).Equal(vb.Field(i)) {
			fields = append(fields, va.Type().Field(i).Name)
		}
	}
	return fields
}

// TestMetricsAddSubRoundTrip enforces that Add and Sub cover every
// Metrics field: accumulating a fully-populated value and subtracting
// it back must be the identity. A field added to the struct but
// forgotten in either method shows up by name in the failure.
func TestMetricsAddSubRoundTrip(t *testing.T) {
	a := distinctMetrics(t, 100)
	b := distinctMetrics(t, 2000)

	var sum Metrics
	sum.Add(a)
	if drift := driftedFields(sum, a); len(drift) > 0 {
		t.Fatalf("Add misses fields %v", drift)
	}
	sum.Add(b)
	if got := sum.Sub(b); !reflect.DeepEqual(got, a) {
		t.Fatalf("Add/Sub round-trip drifts on fields %v", driftedFields(got, a))
	}
	if got := sum.Sub(a).Sub(b); got != (Metrics{}) {
		t.Fatalf("subtracting everything leaves residue on fields %v", driftedFields(got, Metrics{}))
	}
}
