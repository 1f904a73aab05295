package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"time"

	"dopencl/internal/apps/cgsolve"
	"dopencl/internal/cl"
	"dopencl/internal/darray"
)

// The cg workload: the conjugate-gradient iteration written against
// darray Step/Map/DotRows with cgsolve.KernelSource, run eagerly with
// two blocking host reductions per iteration. Every call is a full
// round trip (encode, gcf, wire, daemon, native, completion, read
// back), not a replay.
const (
	cgIters = 32 // iterations per solve; a run measures whole solves
	cgRHS   = 4  // distinct right-hand sides per seed
)

type cgWork struct {
	rhs  [][]float32
	refs []cgsolve.Result

	live
	solver  *cgRun
	episode int
}

// cgRun holds the CG vectors on one grid.
type cgRun struct {
	grid        *darray.Grid
	halo        darray.Halo
	x, r, p, ap *darray.Array
	zero        []float32
	rs          float32
}

func newCGRun(plat cl.Platform, devs []cl.Device, b []float32, tr *tracer, rep int64) (cl.Context, *cgRun, error) {
	ctx, g, err := newGrid(plat, devs, cgsolve.KernelSource, tr, rep)
	if err != nil {
		return ctx, nil, err
	}
	c := &cgRun{grid: g, zero: make([]float32, gridW*gridH)}
	if c.halo, err = darray.InferHalo(cgsolve.KernelSource, "applyA"); err != nil {
		return ctx, nil, err
	}
	for _, a := range []**darray.Array{&c.x, &c.r, &c.p, &c.ap} {
		if *a, err = g.NewArray(); err != nil {
			return ctx, nil, err
		}
	}
	for _, s := range []struct {
		a    *darray.Array
		vals []float32
	}{{c.x, c.zero}, {c.r, b}, {c.p, b}, {c.ap, c.zero}} {
		if err := scatter(tr, rep, s.a, s.vals); err != nil {
			return ctx, nil, err
		}
	}
	return ctx, c, nil
}

// reset starts a solve of A·x = b from x0 = 0: r0 = p0 = b.
func (c *cgRun) reset(b []float32) error {
	for _, s := range []struct {
		a    *darray.Array
		vals []float32
	}{{c.x, c.zero}, {c.r, b}, {c.p, b}} {
		if err := bounded("Array.Scatter", func() error { return s.a.Scatter(s.vals) }); err != nil {
			return err
		}
	}
	return bounded("Grid.DotRows", func() (err error) {
		c.rs, err = c.grid.DotRows("dotrows", c.r, c.r)
		return err
	})
}

// iterate runs one CG iteration and returns the new squared residual.
// The order of operations is cgsolve.Solve's, so every value is
// bit-identical to cgsolve.Reference.
func (c *cgRun) iterate(tr *tracer, parent int, unit int64) (float32, error) {
	call := func(name string, f func() error) error {
		return tr.do(name, parent, unit, func() error { return bounded(name, f) })
	}
	mapOp := func(kernel string, dst, src *darray.Array, s float32) error {
		return call("darray.map", func() error { return c.grid.Map(kernel, []*darray.Array{dst, src}, s) })
	}
	if err := call("darray.step", func() error { return c.grid.Step("applyA", c.ap, c.p, c.halo) }); err != nil {
		return 0, err
	}
	var pAp, rsNew float32
	if err := call("darray.dot", func() (err error) { pAp, err = c.grid.DotRows("dotrows", c.p, c.ap); return err }); err != nil {
		return 0, err
	}
	if pAp == 0 {
		return 0, fmt.Errorf("cg breakdown: p·Ap = 0")
	}
	alpha := c.rs / pAp
	if err := mapOp("axpy", c.x, c.p, alpha); err != nil {
		return 0, err
	}
	if err := mapOp("axpy", c.r, c.ap, -alpha); err != nil {
		return 0, err
	}
	if err := call("darray.dot", func() (err error) { rsNew, err = c.grid.DotRows("dotrows", c.r, c.r); return err }); err != nil {
		return 0, err
	}
	beta := rsNew / c.rs
	c.rs = rsNew
	return rsNew, mapOp("xpay", c.p, c.r, beta)
}

// solve runs one whole solve of cgIters iterations against ref,
// measuring each iteration as one unit on m. It reports how many
// iterations' outputs missed the oracle.
func (c *cgRun) solve(m *meter, b []float32, ref cgsolve.Result, first int64) (rejected int, err error) {
	if err := c.reset(b); err != nil {
		return 0, fmt.Errorf("reset: %w", err)
	}
	for it := 0; it < cgIters; it++ {
		unit := first + int64(it)
		root := m.tr.begin("cg.iter", -1, unit)
		var rs float32
		err := m.op(1, func() (err error) {
			rs, err = c.iterate(m.tr, root, unit)
			return err
		})
		m.tr.end(root)
		if err != nil {
			return rejected, fmt.Errorf("iteration %d: %w", unit, err)
		}
		if math.Float32bits(rs) != math.Float32bits(ref.Residuals[it]) {
			m.reject(1)
			rejected++
		}
	}
	var x []float32
	if err := bounded("Array.Gather", func() (err error) { x, err = c.x.Gather(); return err }); err != nil {
		return rejected, fmt.Errorf("gather: %w", err)
	}
	if !sameFloats(x, ref.X) {
		m.reject(cgIters - rejected)
		rejected = cgIters
	}
	return rejected, nil
}

func newCGWork(seed uint64) workload {
	rng := rand.New(rand.NewPCG(seed, 0x63677276))
	w := &cgWork{}
	for i := 0; i < cgRHS; i++ {
		// Zero on the boundary, where the operator is the identity.
		b := make([]float32, gridW*gridH)
		for y := 1; y < gridH-1; y++ {
			for x := 1; x < gridW-1; x++ {
				b[y*gridW+x] = rng.Float32() - 0.5
			}
		}
		w.rhs = append(w.rhs, b)
		w.refs = append(w.refs, cgsolve.Reference(cgsolve.Params{W: gridW, H: gridH, Iters: cgIters}, b))
	}
	return w
}

func (w *cgWork) source() string { return cgsolve.KernelSource }

func (w *cgWork) setup(tr *tracer, rep int64) error {
	for i, ref := range w.refs {
		if len(ref.Residuals) != cgIters {
			return fmt.Errorf("right-hand side %d converges in %d iterations, fewer than %d", i, len(ref.Residuals), cgIters)
		}
	}
	st, err := startStack(1, 1)
	if err != nil {
		return err
	}
	w.st = st
	plat, devs, err := st.lease("cg", 2, tr, rep)
	if err != nil {
		return err
	}
	w.ctx, w.solver, err = newCGRun(plat, devs, w.rhs[0], tr, rep)
	return err
}

// measure runs whole solves until budget is spent (one solve for a
// zero budget). Resets and the solution gather fall outside the timed
// windows.
func (w *cgWork) measure(m *meter, budget time.Duration) error {
	for first := true; first || m.elapsed < budget; first = false {
		e := w.episode
		w.episode++
		if _, err := w.solver.solve(m, w.rhs[e%cgRHS], w.refs[e%cgRHS], int64(e*cgIters)); err != nil {
			return fmt.Errorf("solve %d: %w", e, err)
		}
		if budget == 0 {
			return nil
		}
	}
	return nil
}

func (w *cgWork) layer(m *meter) map[string]float64 {
	return map[string]float64{
		"darray.step_us":           spanMedian(m.tr, "darray.step") / 1e3,
		"darray.map_us":            spanMedian(m.tr, "darray.map") / 1e3,
		"darray.dot_us":            spanMedian(m.tr, "darray.dot") / 1e3,
		"coherence.peer_vs_halo_x": m.perUnit(m.wire.PeerBytes) / haloSurfaceBytes(w.solver.grid, w.solver.halo),
	}
}

// nativeUnit runs one solve on an in-process native platform and
// returns the median iteration time.
func (w *cgWork) nativeUnit() (float64, error) {
	plat, devs, err := nativeDevices(2)
	if err != nil {
		return 0, err
	}
	ctx, c, err := newCGRun(plat, devs, w.rhs[0], nil, 0)
	if ctx != nil {
		defer ctx.Release()
	}
	if err != nil {
		return 0, err
	}
	m := &meter{st: &stack{wire: &wire{}}}
	rejected, err := c.solve(m, w.rhs[0], w.refs[0], 0)
	if err != nil {
		return 0, err
	}
	if rejected > 0 {
		return 0, fmt.Errorf("native cg missed the oracle on %d iterations", rejected)
	}
	return median(m.samples), nil
}
