package core

import (
	"errors"
	"fmt"

	"repro/internal/mapred"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/simnet"
	"repro/internal/simtime"
	"repro/internal/trace"
)

// Stepper advances an iterative run one iteration at a time, so a
// driver — the multi-tenant scheduler in internal/sched — can suspend
// a run between iterations, let other work use the cluster, and resume
// it later. RunIC and RunPIC are thin loops over the steppers, so a
// stepped run performs exactly the operations (and allocates exactly
// the trace span ids) a monolithic run does.
type Stepper interface {
	// Step executes one iteration. It reports done when the run has
	// finished (converged or hit its iteration cap); further calls
	// after done are no-ops. An error abandons the run.
	Step() (done bool, err error)
}

// ICStepper is the resumable form of RunIC. Create one with
// NewICStepper, call Step until it reports done, then read Result.
type ICStepper struct {
	rt  *Runtime
	app App
	in  *mapred.Input
	opt ICOptions

	startElapsed    simtime.Duration
	startMetrics    mapred.Metrics
	startModelBytes int64
	phaseID         int64

	m    *model.Model
	res  *ICResult
	done bool
}

// NewICStepper prepares a conventional iterative-convergence run over
// rt without executing any iterations yet.
func NewICStepper(rt *Runtime, app App, in *mapred.Input, m0 *model.Model, opts *ICOptions) *ICStepper {
	s := &ICStepper{
		rt:              rt,
		app:             app,
		in:              in,
		opt:             opts.withDefaults(),
		startElapsed:    rt.Elapsed(),
		startMetrics:    rt.Metrics(),
		startModelBytes: rt.ModelUpdateBytes(),
		m:               m0,
		res:             &ICResult{},
	}
	// The phase span encloses every job the iterations run: allocate
	// its id up front so children parent under it; the event itself is
	// recorded when the run finishes and the extent is known.
	s.phaseID = rt.tracer.NextID()
	return s
}

// Step runs one iteration.
func (s *ICStepper) Step() (bool, error) {
	if s.done {
		return true, nil
	}
	rt, opt := s.rt, s.opt
	prevSpan := rt.span
	rt.span = s.phaseID
	defer func() { rt.span = prevSpan }()

	next, err := rt.runIteration(s.app, s.in, s.m)
	if err != nil {
		// A transfer severed by an outage or partition is not fatal:
		// stall until the network plan's next fault transition and
		// re-run the iteration against the changed overlay. Only when
		// no transition lies ahead (the cut is permanent) does the
		// typed error surface. A transfer that exhausted its checksum
		// re-send budget inside a bit-error window stalls the same way,
		// to the window's next boundary.
		var te *simnet.TransferError
		if errors.As(err, &te) {
			next, ok := rt.Cluster().NetworkPlan().NextTransition(rt.now())
			why := "network fault"
			if te.Kind == simnet.TransferCorrupt {
				next, ok = rt.Cluster().CorruptionPlan().NextTransition(rt.now())
				why = "bit-error window"
			}
			if ok {
				s.res.Blocked += rt.blockUntil(next, why)
				s.res.BlockedIterations++
				return false, nil
			}
		}
		return false, fmt.Errorf("core: %s iteration %d: %w", s.app.Name(), s.res.Iterations, err)
	}
	if next == nil {
		return false, fmt.Errorf("core: %s iteration %d returned a nil model", s.app.Name(), s.res.Iterations)
	}
	s.res.Iterations++
	if !opt.DisableModelWrites {
		rt.WriteModel(s.app.Name(), next)
	}
	if opt.Observer != nil {
		opt.Observer(Sample{
			Phase:     opt.Phase,
			Iteration: s.res.Iterations,
			Time:      opt.TimeOffset + simtime.Time(rt.Elapsed()-s.startElapsed),
			Model:     next,
		})
	}
	if rt.obs != nil && !rt.local {
		delta := max(model.MaxVectorDelta(s.m, next), model.MaxFloatDelta(s.m, next))
		rt.obs.Series("core.residual", metrics.L("phase", string(opt.Phase))...).
			Sample(rt.now(), delta)
	}
	converged := s.app.Converged(s.m, next)
	s.m = next
	if converged {
		s.res.Converged = true
	}
	if converged || s.res.Iterations >= opt.MaxIterations {
		s.finish()
		return true, nil
	}
	return false, nil
}

// finish closes the run: final result fields and the phase trace span.
// Called with rt.span already restored or about to be restored; the
// phase event carries its own pre-allocated id.
func (s *ICStepper) finish() {
	rt := s.rt
	s.res.Model = s.m
	s.res.Duration = rt.Elapsed() - s.startElapsed
	s.res.Metrics = rt.Metrics().Sub(s.startMetrics)
	s.res.ModelUpdateBytes = rt.ModelUpdateBytes() - s.startModelBytes
	rt.tracer.Record(trace.Event{
		Kind:  trace.KindPhase,
		Name:  s.app.Name() + "/" + string(s.opt.Phase),
		Start: rt.now() - simtime.Time(s.res.Duration),
		End:   rt.now(),
		Lane:  rt.lane,
		ID:    s.phaseID,
	})
	s.done = true
}

// Result returns the run's result once Step has reported done, nil
// before that.
func (s *ICStepper) Result() *ICResult {
	if !s.done {
		return nil
	}
	return s.res
}
