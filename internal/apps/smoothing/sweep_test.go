package smoothing

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/mapred"
	"repro/internal/model"
	"repro/internal/writable"
)

// pixelLoop is the per-pixel loop both backends ran before the kernel,
// with the float64() conversions the kernel uses: the oracle sweepRow
// must match bit for bit.
func pixelLoop(out, orig, cur, up, down []float64, mu float64) {
	hasUp, hasDown := up != nil, down != nil
	for x := range orig {
		sum, n := 0.0, 0.0
		if hasUp {
			sum += up[x]
			n++
		}
		if hasDown {
			sum += down[x]
			n++
		}
		if x > 0 {
			sum += cur[x-1]
			n++
		}
		if x < len(orig)-1 {
			sum += cur[x+1]
			n++
		}
		out[x] = (orig[x] + float64(mu*sum)) / (1 + float64(mu*n))
	}
}

// checkSweep runs the kernel and the oracle on one row for each of the
// four (up, down) presence cases and fails on the first pixel whose bits
// differ. NaNs match any NaN: which payload an addition of two NaNs
// returns is up to the hardware and the operand order the compiler
// picks, in the oracle as much as in the kernel.
func checkSweep(t *testing.T, orig, cur, up, down []float64, mu float64) {
	t.Helper()
	for _, c := range []struct {
		name     string
		up, down []float64
	}{{"both", up, down}, {"up", up, nil}, {"down", nil, down}, {"none", nil, nil}} {
		want := make([]float64, len(orig))
		got := make([]float64, len(orig))
		pixelLoop(want, orig, cur, c.up, c.down, mu)
		sweepRow(got, orig, cur, c.up, c.down, mu)
		for x := range want {
			if math.Float64bits(got[x]) != math.Float64bits(want[x]) && !(math.IsNaN(got[x]) && math.IsNaN(want[x])) {
				t.Fatalf("width %d, %s, mu %v: pixel %d = %v (%#x), pixel loop %v (%#x)",
					len(orig), c.name, mu, x, got[x], math.Float64bits(got[x]), want[x], math.Float64bits(want[x]))
			}
		}
	}
}

// specials are the values the kernel must carry exactly as the pixel
// loop does: signed zeros, subnormals, infinities, NaNs with payloads and
// values whose products overflow.
var specials = []float64{
	0, math.Copysign(0, -1), 5e-324, -5e-324, 2.5e-310, math.Inf(1), math.Inf(-1),
	math.NaN(), math.Float64frombits(0x7ff8000000000123), math.Float64frombits(0xfff0000000000001),
	1e300, -1e300, 1, -2.5, 0.1, 3,
}

func TestSweepRowMatchesPixelLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	row := func(w int, pick func() float64) []float64 {
		r := make([]float64, w)
		for x := range r {
			r[x] = pick()
		}
		return r
	}
	special := func() float64 { return specials[rng.Intn(len(specials))] }
	normal := func() float64 { return rng.NormFloat64() * 100 }
	mixed := func() float64 {
		if rng.Intn(4) == 0 {
			return special()
		}
		return normal()
	}
	for _, w := range []int{1, 2, 3, 5, 1024} {
		for _, mu := range []float64{0.5, 2, 5e-324, 1e300, math.Copysign(0, -1)} {
			for _, pick := range []func() float64{normal, special, mixed} {
				checkSweep(t, row(w, pick), row(w, pick), row(w, pick), row(w, pick), mu)
			}
		}
		// Every special in every operand position, against every other.
		for _, a := range specials {
			for _, b := range specials {
				fill := func(v float64) []float64 { return row(w, func() float64 { return v }) }
				checkSweep(t, fill(a), fill(b), fill(a), fill(b), 2)
				checkSweep(t, fill(b), fill(a), fill(b), fill(a), 0.5)
			}
		}
	}
}

// FuzzSweepRowMatchesPixelLoop drives the kernel with arbitrary bit
// patterns: raw is read as little-endian float64 words, cycled to fill
// the four rows.
func FuzzSweepRowMatchesPixelLoop(f *testing.F) {
	word := func(v float64) []byte { return binary.LittleEndian.AppendUint64(nil, math.Float64bits(v)) }
	var all []byte
	for _, v := range specials {
		all = append(all, word(v)...)
	}
	f.Add(uint16(0), 0.5, all)
	f.Add(uint16(1), 2.0, all)
	f.Add(uint16(4), 2.0, word(math.Copysign(0, -1)))
	f.Add(uint16(1023), 0.25, all)
	f.Fuzz(func(t *testing.T, width uint16, mu float64, raw []byte) {
		w := 1 + int(width)%1100
		words := len(raw) / 8
		next := 0
		row := func() []float64 {
			r := make([]float64, w)
			for x := range r {
				if words > 0 {
					r[x] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*(next%words):]))
				}
				next++
			}
			return r
		}
		checkSweep(t, row(), row(), row(), row(), mu)
	})
}

// TestParseRowKeyIsCanonical: a key parses exactly when rendering its
// row gives the key back.
func TestParseRowKeyIsCanonical(t *testing.T) {
	for _, y := range []int{0, 1, 42, 999999, 1000000, 123456789} {
		if got, halo, ok := parseRowKey(RowKey(y)); !ok || halo || got != y {
			t.Errorf("parseRowKey(%q) = %d, halo %v, ok %v", RowKey(y), got, halo, ok)
		}
		if got, halo, ok := parseRowKey(haloKey(y)); !ok || !halo || got != y {
			t.Errorf("parseRowKey(%q) = %d, halo %v, ok %v", haloKey(y), got, halo, ok)
		}
	}
	for _, key := range []string{"img00001", "img0000001", "img-00001", "img00000a", "img", "halo",
		"imgx000001", "Img000001", "img 00001", "halo0000012", "img000001 ", "row000001"} {
		if y, halo, ok := parseRowKey(key); ok {
			t.Errorf("parseRowKey(%q) = %d, halo %v: accepted a key no row renders", key, y, halo)
		}
	}
}

// sweepPath is one way a sweep reaches the kernel: a backend, and the
// framework job of an IC iteration or the in-memory job of a PIC local
// iteration on a node group.
type sweepPath struct {
	name    string
	backend core.Backend
	local   bool
}

var sweepPaths = []sweepPath{
	{"mapred/ic", core.BackendMapred, false},
	{"mapred/local", core.BackendMapred, true},
	{"bsp/ic", core.BackendBSP, false},
	{"bsp/local", core.BackendBSP, true},
}

// runSweeps runs iters sweeps of app over recs from m0 along path,
// handing obs every iterate.
func runSweeps(path sweepPath, app *App, recs []mapred.Record, m0 *model.Model, iters int, obs core.Observer) error {
	rt := testRuntime()
	if err := rt.SetBackend(path.backend); err != nil {
		return err
	}
	view := rt.Cluster()
	if path.local {
		view = view.Groups(2)[0]
		rt = rt.Fork(view, true)
	}
	in := mapred.NewInput(recs, view, 3)
	_, err := core.RunIC(rt, app, in, m0, &core.ICOptions{
		MaxIterations: iters, DisableModelWrites: path.local, Observer: obs,
	})
	return err
}

// TestSweepSlabIsFreshPerSweep: every sweep writes into its own slab,
// so a model handed out by sweep k — to an observer, a checkpoint, a
// PIC partial — keeps its bytes while later sweeps run, and no emitted
// row can grow into its neighbour.
func TestSweepSlabIsFreshPerSweep(t *testing.T) {
	const w, h = 16, 12
	img := data.NoisyImage(21, w, h, 10)
	for _, path := range sweepPaths {
		t.Run(path.name, func(t *testing.T) {
			var models []*model.Model
			var encoded [][]byte
			err := runSweeps(path, New(w, h, 0.5, 1e-12), Records(img), InitialModel(img), 4, func(s core.Sample) {
				models = append(models, s.Model)
				encoded = append(encoded, s.Model.Encode(nil))
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(models) != 4 {
				t.Fatalf("%d iterates observed, want 4", len(models))
			}
			for k, m := range models {
				if !bytes.Equal(m.Encode(nil), encoded[k]) {
					t.Errorf("model of sweep %d changed after later sweeps ran", k)
				}
				m.Range(func(key string, v writable.Writable) bool {
					if row := v.(writable.Vector); cap(row) != w {
						t.Errorf("sweep %d: %s has cap %d, want %d", k, key, cap(row), w)
					}
					return true
				})
			}
		})
	}
}

// TestMalformedInputIsAnError: a record that is not a row of the image
// fails the sweep with an error naming it, and a model row narrower than
// the image fails it naming the row — on both backends, in IC and PIC
// local iterations, never as a panic in a worker.
func TestMalformedInputIsAnError(t *testing.T) {
	const w, h = 8, 6
	img := data.NoisyImage(5, w, h, 10)
	record := func(y float64, pixels []float64) writable.Vector { return append(writable.Vector{y}, pixels...) }
	cases := []struct {
		name   string
		damage func(recs []mapred.Record, m *model.Model)
		want   string
	}{
		{"not a vector", func(recs []mapred.Record, _ *model.Model) { recs[2].Value = writable.Float64(2) }, `record "row000002" is not a row`},
		{"empty", func(recs []mapred.Record, _ *model.Model) { recs[2].Value = writable.Vector{} }, `record "row000002" is not a row`},
		{"below the image", func(recs []mapred.Record, _ *model.Model) { recs[2].Value = record(h, img.Rows[2]) }, `record "row000002": row 6 is outside the image`},
		{"above the image", func(recs []mapred.Record, _ *model.Model) { recs[2].Value = record(-1, img.Rows[2]) }, `record "row000002": row -1 is outside the image`},
		{"twice", func(recs []mapred.Record, _ *model.Model) { recs[2].Value = recs[1].Value }, `record "row000002": row 1 is outside the image or already has a record`},
		{"narrow", func(recs []mapred.Record, _ *model.Model) { recs[2].Value = record(2, img.Rows[2][:3]) }, `record "row000002": row 2 has 3 pixels, the image is 8 wide`},
		{"narrow model row", func(_ []mapred.Record, m *model.Model) { m.Set(RowKey(3), writable.Vector{1, 2}) }, `reads a model row of 2 pixels, the image is 8 wide`},
	}
	for _, path := range sweepPaths {
		for _, c := range cases {
			t.Run(path.name+"/"+c.name, func(t *testing.T) {
				recs, m := Records(img), InitialModel(img)
				c.damage(recs, m)
				err := runSweeps(path, New(w, h, 0.5, 1e-12), recs, m, 1, nil)
				if err == nil || !strings.Contains(err.Error(), c.want) {
					t.Fatalf("err = %v, want one containing %q", err, c.want)
				}
			})
		}
	}
}
