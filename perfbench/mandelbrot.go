package main

import (
	"encoding/binary"
	"fmt"
	"math/rand/v2"
	"time"

	"dopencl/internal/apps/mandelbrot"
	"dopencl/internal/cl"
	"dopencl/internal/sched"
)

// The mandelbrot workload: compute-bound frames partitioned by
// sched.Run (Dynamic policy) across two daemons, each followed by a
// stitched whole-image blocking read. The viewports are a seeded zoom
// sequence, so per-row cost shifts from frame to frame.
const (
	mbSize    = 256 // image width and height
	mbMaxIter = 256
	mbFrames  = 4 // viewports per zoom cycle; a run measures whole cycles
)

type mandelWork struct {
	views []mandelbrot.Params
	refs  [][]int32 // oracle image per viewport

	live
	prog    cl.Program
	workers []sched.Worker
	buf     cl.Buffer
	out     []byte
	frame   int
	reports [][]sched.Report // per traced frame
}

// zoomPath builds the seeded zoom: each frame narrows the view towards
// the seahorse valley by a fixed factor, its centre jittered by a
// seeded few percent of the view, so every seed does comparable work.
func zoomPath(seed uint64) []mandelbrot.Params {
	rng := rand.New(rand.NewPCG(seed, 0x6d616e64))
	const tx, ty = -0.7436, 0.1318
	views := make([]mandelbrot.Params, mbFrames)
	span := 3.0
	cx, cy := -0.75, 0.0
	for i := range views {
		jx := (rng.Float64() - 0.5) * 0.04 * span
		jy := (rng.Float64() - 0.5) * 0.04 * span
		views[i] = mandelbrot.Params{
			Width: mbSize, Height: mbSize, MaxIter: mbMaxIter,
			XMin: cx + jx - span/2, XMax: cx + jx + span/2,
			YMin: cy + jy - span/2, YMax: cy + jy + span/2,
		}
		span *= 0.5
		cx += (tx - cx) * 0.5
		cy += (ty - cy) * 0.5
	}
	return views
}

func newMandelWork(seed uint64) workload {
	w := &mandelWork{views: zoomPath(seed), out: make([]byte, 4*mbSize*mbSize)}
	for _, v := range w.views {
		w.refs = append(w.refs, mandelbrot.ReferenceRender(v))
	}
	return w
}

func (w *mandelWork) source() string { return mandelbrot.PartitionedKernelSource }

func (w *mandelWork) setup(tr *tracer, rep int64) error {
	st, err := startStack(1, 1)
	if err != nil {
		return err
	}
	w.st = st
	plat, devs, err := st.lease("mandelbrot", 2, tr, rep)
	if err != nil {
		return err
	}
	w.ctx, w.prog, w.workers, w.buf, err = buildMandel(plat, devs, tr, rep)
	return err
}

// buildMandel creates the context, program, one queue per device and
// the shared image buffer on any platform.
func buildMandel(plat cl.Platform, devs []cl.Device, tr *tracer, rep int64) (cl.Context, cl.Program, []sched.Worker, cl.Buffer, error) {
	ctx, err := plat.CreateContext(devs)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	prog, err := ctx.CreateProgramWithSource(mandelbrot.PartitionedKernelSource)
	if err != nil {
		return ctx, nil, nil, nil, err
	}
	if err := tr.do("client.build", -1, rep, func() error { return prog.Build(nil, "") }); err != nil {
		return ctx, nil, nil, nil, err
	}
	var workers []sched.Worker
	for _, d := range devs {
		q, err := ctx.CreateQueue(d)
		if err != nil {
			return ctx, prog, nil, nil, err
		}
		workers = append(workers, sched.Worker{Queue: q})
	}
	buf, err := ctx.CreateBuffer(cl.MemWriteOnly, 4*mbSize*mbSize, nil)
	return ctx, prog, workers, buf, err
}

func launchFor(prog cl.Program, buf cl.Buffer, p mandelbrot.Params) sched.Launch {
	dx := (p.XMax - p.XMin) / float64(p.Width)
	dy := (p.YMax - p.YMin) / float64(p.Height)
	return sched.Launch{
		Program: prog,
		Kernel:  "mandelblock",
		Args: []any{nil, int32(p.Width), int32(p.Height),
			float32(p.XMin), float32(p.YMin), float32(dx), float32(dy),
			int32(p.MaxIter)},
		Parts:  []sched.Part{{Arg: 0, Buffer: buf, BytesPerItem: 4}},
		Global: p.Width * p.Height,
	}
}

// renderFrame runs one frame: the partitioned launch, then the
// stitched whole-image read into out.
func renderFrame(tr *tracer, unit int64, parent int, prog cl.Program, workers []sched.Worker, buf cl.Buffer, p mandelbrot.Params, out []byte) ([]sched.Report, error) {
	var reps []sched.Report
	err := tr.do("sched.run", parent, unit, func() error {
		return bounded("sched.Run", func() (err error) {
			reps, err = sched.Run(launchFor(prog, buf, p), workers, sched.Dynamic{})
			return err
		})
	})
	if err != nil {
		return nil, err
	}
	err = tr.do("client.read", parent, unit, func() error {
		return bounded("EnqueueReadBuffer", func() error {
			_, err := workers[0].Queue.EnqueueReadBuffer(buf, true, 0, out, nil)
			return err
		})
	})
	return reps, err
}

func sameImage(out []byte, ref []int32) bool {
	for i, v := range ref {
		if int32(binary.LittleEndian.Uint32(out[4*i:])) != v {
			return false
		}
	}
	return true
}

// measure renders whole zoom cycles until budget is spent (one frame
// for a zero budget, the warm-up). A cycle may start at any viewport.
func (w *mandelWork) measure(m *meter, budget time.Duration) error {
	start := w.frame
	for first := true; first || m.elapsed < budget || (w.frame-start)%mbFrames != 0; first = false {
		i := w.frame % mbFrames
		unit := int64(w.frame)
		w.frame++
		root := m.tr.begin("frame", -1, unit)
		var reps []sched.Report
		err := m.op(1, func() (err error) {
			reps, err = renderFrame(m.tr, unit, root, w.prog, w.workers, w.buf, w.views[i], w.out)
			return err
		})
		m.tr.end(root)
		if err != nil {
			return fmt.Errorf("frame %d: %w", unit, err)
		}
		if m.tr != nil {
			w.reports = append(w.reports, reps)
		}
		if !sameImage(w.out, w.refs[i]) {
			m.reject(1)
		}
		if budget == 0 {
			return nil
		}
	}
	return nil
}

func (w *mandelWork) layer(m *meter) map[string]float64 {
	var chunks, imbalance []float64
	for _, reps := range w.reports {
		n, maxBusy, sum := 0, 0.0, 0.0
		for _, r := range reps {
			n += r.Chunks
			b := r.Busy.Seconds()
			sum += b
			maxBusy = max(maxBusy, b)
		}
		chunks = append(chunks, float64(n))
		if sum > 0 {
			imbalance = append(imbalance, maxBusy/(sum/float64(len(reps))))
		}
	}
	return map[string]float64{
		"sched.run_ms":    spanMedian(m.tr, "sched.run") / 1e6,
		"client.read_ms":  spanMedian(m.tr, "client.read") / 1e6,
		"sched.chunks":    finite(median(chunks)),
		"sched.imbalance": finite(median(imbalance)),
	}
}

// nativeUnit renders one whole zoom cycle on an in-process native
// platform with the same two devices and returns the mean frame time.
func (w *mandelWork) nativeUnit() (float64, error) {
	plat, devs, err := nativeDevices(2)
	if err != nil {
		return 0, err
	}
	ctx, prog, workers, buf, err := buildMandel(plat, devs, nil, 0)
	if ctx != nil {
		defer ctx.Release()
	}
	if err != nil {
		return 0, err
	}
	out := make([]byte, len(w.out))
	t0 := time.Now()
	for i, v := range w.views {
		if _, err := renderFrame(nil, 0, -1, prog, workers, buf, v, out); err != nil {
			return 0, err
		}
		if !sameImage(out, w.refs[i]) {
			return 0, fmt.Errorf("native frame %d does not match the oracle", i)
		}
	}
	return time.Since(t0).Seconds() * 1e3 / float64(len(w.views)), nil
}
