package main

import (
	"fmt"
	"math/rand/v2"
	"time"

	"dopencl/internal/apps/heat"
	"dopencl/internal/cl"
	"dopencl/internal/darray"
)

// The jacobi workload: heat's 5-point stencil on a darray grid over two
// daemons, run as the recorded ping-pong replay (RecordPingPong +
// Loop.Iterate) with peer halo forwards. Overhead-bound and pipelined;
// the only workload that loads graph replay.
const (
	jacobiChunk = 64 // iterations per Loop.Iterate call
	jacobiAlpha = float32(0.2)
)

type jacobiWork struct {
	init []float32

	live
	run   *jacobiRun
	ref   []float32 // oracle state after run.steps iterations
	steps int
}

// jacobiRun is a recorded ping-pong loop on one grid.
type jacobiRun struct {
	grid *darray.Grid
	halo darray.Halo
	loop *darray.Loop
}

func newJacobiRun(plat cl.Platform, devs []cl.Device, init []float32, tr *tracer, rep int64) (cl.Context, *jacobiRun, error) {
	ctx, g, err := newGrid(plat, devs, heat.KernelSource, tr, rep)
	if err != nil {
		return ctx, nil, err
	}
	r := &jacobiRun{grid: g}
	if r.halo, err = darray.InferHalo(heat.KernelSource, heat.StepKernel); err != nil {
		return ctx, nil, err
	}
	a, err := g.NewArray()
	if err != nil {
		return ctx, nil, err
	}
	b, err := g.NewArray()
	if err != nil {
		return ctx, nil, err
	}
	if err := scatter(tr, rep, a, init); err != nil {
		return ctx, nil, err
	}
	err = tr.do("darray.record", -1, rep, func() (err error) {
		r.loop, err = g.RecordPingPong(heat.StepKernel, a, b, r.halo, jacobiAlpha)
		return err
	})
	return ctx, r, err
}

// iterate replays one chunk of iterations.
func (r *jacobiRun) iterate(tr *tracer, unit int64) error {
	return tr.do("darray.iterate", -1, unit, func() error {
		return bounded("Loop.Iterate", func() error { return r.loop.Iterate(jacobiChunk, nil) })
	})
}

func (r *jacobiRun) state() ([]float32, error) {
	var got []float32
	err := bounded("Array.Gather", func() (err error) {
		got, err = r.loop.Result().Gather()
		return err
	})
	return got, err
}

func newJacobiWork(seed uint64) workload {
	rng := rand.New(rand.NewPCG(seed, 0x6a61636f))
	return &jacobiWork{init: randomFloats(rng, gridW*gridH)}
}

func (w *jacobiWork) source() string { return heat.KernelSource }

func (w *jacobiWork) setup(tr *tracer, rep int64) error {
	st, err := startStack(1, 1)
	if err != nil {
		return err
	}
	w.st = st
	plat, devs, err := st.lease("jacobi", 2, tr, rep)
	if err != nil {
		return err
	}
	w.ctx, w.run, err = newJacobiRun(plat, devs, w.init, tr, rep)
	w.ref, w.steps = w.init, 0
	return err
}

func (w *jacobiWork) advanceRef() {
	w.ref = heat.Reference(heat.Params{W: gridW, H: gridH, Iters: jacobiChunk, Alpha: jacobiAlpha}, w.ref)
	w.steps += jacobiChunk
}

// measure replays chunks until budget is spent (one chunk for a zero
// budget). After each chunk, outside the timed window, the state is
// gathered and compared with the oracle advanced by the same count.
func (w *jacobiWork) measure(m *meter, budget time.Duration) error {
	for first := true; first || m.elapsed < budget; first = false {
		unit := int64(w.steps)
		if err := m.op(jacobiChunk, func() error { return w.run.iterate(m.tr, unit) }); err != nil {
			return fmt.Errorf("iterations %d..: %w", unit, err)
		}
		w.advanceRef()
		got, err := w.run.state()
		if err != nil {
			m.reject(jacobiChunk)
			return fmt.Errorf("gather after iteration %d: %w", w.steps, err)
		}
		if !sameFloats(got, w.ref) {
			m.reject(jacobiChunk)
		}
		if budget == 0 {
			return nil
		}
	}
	return nil
}

func (w *jacobiWork) layer(m *meter) map[string]float64 {
	return map[string]float64{
		"darray.iterate_us":        spanMedian(m.tr, "darray.iterate") / 1e3 / jacobiChunk,
		"coherence.peer_vs_halo_x": m.perUnit(m.wire.PeerBytes) / haloSurfaceBytes(w.run.grid, w.run.halo),
	}
}

// nativeUnit runs three chunks on an in-process native platform and
// returns the median time per iteration. Each iteration is its own
// Iterate call, which drains both queues: on one shared-memory native
// context the pipelined replay has no ordering between the two queues,
// so a queue running an iteration ahead reads halo rows its neighbour
// has not written yet.
func (w *jacobiWork) nativeUnit() (float64, error) {
	plat, devs, err := nativeDevices(2)
	if err != nil {
		return 0, err
	}
	ctx, r, err := newJacobiRun(plat, devs, w.init, nil, 0)
	if ctx != nil {
		defer ctx.Release()
	}
	if err != nil {
		return 0, err
	}
	ms, err := probe(3, func() error {
		for i := 0; i < jacobiChunk; i++ {
			if err := r.loop.Iterate(1, nil); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	got, err := r.state()
	if err != nil {
		return 0, err
	}
	want := heat.Reference(heat.Params{W: gridW, H: gridH, Iters: 3 * jacobiChunk, Alpha: jacobiAlpha}, w.init)
	if !sameFloats(got, want) {
		return 0, fmt.Errorf("native jacobi state does not match the oracle")
	}
	return ms / jacobiChunk, nil
}
