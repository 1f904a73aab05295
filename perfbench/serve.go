package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand/v2"
	"runtime"
	"sync"
	"time"

	"dopencl/internal/cl"
	"dopencl/internal/client"
	"dopencl/internal/daemon"
	"dopencl/internal/serve"
)

// The serve workload: a closed loop of small jobs from two connections
// to one daemon, each connection keeping a fixed window of jobs in
// flight and waiting for each result in order. A fixed, seeded share of
// jobs repeats an earlier input: one of its own (the session cache
// answers) or one of the other connection's (the daemon cache answers).
// Bypasses coherence, the peer plane, replay and sched.
const (
	serveInts        = 256  // int32 elements per job
	serveWindow      = 64   // jobs in flight per connection
	serveConns       = 2    // connections, one leased device each
	servePool        = 1024 // distinct payload bodies per connection
	serveOwnRepeat   = 100  // per mille of jobs repeating an own earlier input
	serveCrossRepeat = 100  // per mille repeating the other connection's input
	// serveWarmJobs per connection fill both result caches (4096
	// entries each) before timing.
	serveWarmJobs = 4096
)

const serveSource = `
kernel void axpb(const global int* in, global int* out, int f, int n) {
	int i = get_global_id(0);
	if (i < n) { out[i] = in[i] * f + 1; }
}
`

// serveConn is one tenant connection's kernel and serve session, on a
// platform and leased device of its own.
type serveConn struct {
	k   cl.Kernel
	ses *client.ServeSession
}

type serveWork struct {
	seed   uint64
	factor int32
	// bodies[c][i] is payload body i of connection c (word 0 is
	// replaced per job by a unique id); want[c][i] is its oracle output.
	bodies [serveConns][][]byte
	want   [serveConns][][]byte

	live
	conns [serveConns]*serveConn
	next  [serveConns]int // next job index per connection

	traced serveTally
	stats  [2]daemon.ServeStats // daemon counters around the traced phase
}

// serveTally counts one connection's jobs.
type serveTally struct {
	attempted, ok, failed, busy, cached int
	latencies                           []float64 // ms, successful jobs
}

func (t *serveTally) add(o serveTally) {
	t.attempted += o.attempted
	t.ok += o.ok
	t.failed += o.failed
	t.busy += o.busy
	t.cached += o.cached
	t.latencies = append(t.latencies, o.latencies...)
}

func newServeWork(seed uint64) workload {
	rng := rand.New(rand.NewPCG(seed, 0x73657276))
	w := &serveWork{seed: seed, factor: int32(3 + rng.IntN(13))}
	for c := range w.bodies {
		for i := 0; i < servePool; i++ {
			in := make([]byte, 4*serveInts)
			for j := 0; j < serveInts; j++ {
				binary.LittleEndian.PutUint32(in[4*j:], rng.Uint32())
			}
			w.bodies[c] = append(w.bodies[c], in)
			w.want[c] = append(w.want[c], axpb(in, w.factor))
		}
	}
	return w
}

// axpb is the pure-Go oracle of the serve kernel: in*f+1 with int32
// wrap-around.
func axpb(in []byte, f int32) []byte {
	out := make([]byte, len(in))
	for j := 0; j+4 <= len(in); j += 4 {
		v := int32(binary.LittleEndian.Uint32(in[j:]))
		binary.LittleEndian.PutUint32(out[j:], uint32(v*f+1))
	}
	return out
}

// jobID names payload i of connection c; it is also the payload's
// word 0, so every (c, i) is a distinct input.
type jobID struct{ c, i int }

func (j jobID) word() uint32 { return uint32(j.c)<<30 | uint32(j.i)&(1<<30-1) }

// origin decides, from the seed alone, which payload job i of
// connection c submits: its own fresh payload, or a repeat of an
// earlier one of its own or of the other connection's. Repeats reach at
// least one window back, so an own repeat's original has completed.
func (w *serveWork) origin(c, i int) jobID {
	h := splitmix(w.seed ^ uint64(c)<<56 ^ uint64(i))
	back := serveWindow + int(h>>32)%(3*serveWindow)
	switch u := int(h % 1000); {
	case u < serveOwnRepeat && i >= back:
		return jobID{c, i - back}
	case u < serveOwnRepeat+serveCrossRepeat && i >= back:
		return jobID{1 - c, i - back}
	}
	return jobID{c, i}
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

func (w *serveWork) payload(id jobID) []byte {
	in := append([]byte(nil), w.bodies[id.c][id.i%servePool]...)
	binary.LittleEndian.PutUint32(in, id.word())
	return in
}

func (w *serveWork) correct(id jobID, out []byte) bool {
	want := w.want[id.c][id.i%servePool]
	if len(out) != len(want) || !bytes.Equal(out[4:], want[4:]) {
		return false
	}
	return binary.LittleEndian.Uint32(out) == uint32(int32(id.word())*w.factor+1)
}

func (w *serveWork) spec(k cl.Kernel, in []byte) client.JobSpec {
	return client.JobSpec{
		Kernel:   k,
		Args:     []any{nil, nil, w.factor, int32(serveInts)},
		InputArg: 0, OutputArg: 1,
		Input:   in,
		OutSize: 4 * serveInts,
		Global:  []int{serveInts},
	}
}

func (w *serveWork) setup(tr *tracer, rep int64) error {
	st, err := startStack(serveConns)
	if err != nil {
		return err
	}
	w.st = st
	for c := range w.conns {
		plat, devs, err := st.lease(fmt.Sprintf("tenant%d", c), 1, tr, rep)
		if err != nil {
			return err
		}
		ctx, err := plat.CreateContext(devs)
		if err != nil {
			return err
		}
		prog, err := ctx.CreateProgramWithSource(serveSource)
		if err != nil {
			return err
		}
		if err := tr.do("client.build", -1, rep, func() error { return prog.Build(nil, "") }); err != nil {
			return err
		}
		k, err := prog.CreateKernel("axpb")
		if err != nil {
			return err
		}
		ses, err := ctx.(*client.Context).OpenServe(devs[0], 0, 0)
		if err != nil {
			return err
		}
		w.conns[c] = &serveConn{k: k, ses: ses}
		w.ctx = ctx
	}
	return nil
}

func (w *serveWork) source() string { return serveSource }

// pending is one submitted job awaiting its result.
type pending struct {
	fut *serve.Future
	id  jobID
	t0  time.Time
	job int64
}

// loop drives connection c's closed loop until stop reports true, then
// drains its window. n > 0 caps the jobs submitted (the warm-up).
func (w *serveWork) loop(c int, tr *tracer, stop func() bool, n int) (serveTally, error) {
	var t serveTally
	conn := w.conns[c]
	window := make([]pending, 0, serveWindow)
	timer := time.NewTimer(callTimeout)
	defer timer.Stop()
	submitted := 0
	for {
		for len(window) < serveWindow && !stop() && (n == 0 || submitted < n) {
			i := w.next[c]
			w.next[c]++
			submitted++
			id := w.origin(c, i)
			job := int64(c)<<40 | int64(i)
			t.attempted++
			t0 := time.Now()
			sp := tr.begin("serve.submit", -1, job)
			fut, err := conn.ses.Submit(w.spec(conn.k, w.payload(id)))
			tr.end(sp)
			if cl.CodeOf(err) == cl.Busy {
				t.busy++
				t.failed++
				break
			}
			if err != nil {
				t.failed++
				return t, fmt.Errorf("submit: %w", err)
			}
			window = append(window, pending{fut: fut, id: id, t0: t0, job: job})
		}
		if len(window) == 0 {
			if stop() || (n > 0 && submitted >= n) {
				return t, nil
			}
			runtime.Gosched() // refused with an empty window: retry
			continue
		}
		p := window[0]
		window = window[1:]
		sp := tr.begin("serve.wait", -1, p.job)
		timer.Reset(callTimeout)
		select {
		case <-p.fut.Done():
		case <-timer.C:
			t.failed++
			return t, errHung{"Future.Wait"}
		}
		if !timer.Stop() {
			<-timer.C
		}
		res, err := p.fut.Wait()
		lat := time.Since(p.t0)
		tr.end(sp)
		if cl.CodeOf(err) == cl.Busy {
			t.busy++
			t.failed++
			continue
		}
		if err != nil {
			t.failed++
			return t, fmt.Errorf("job %d: %w", p.job, err)
		}
		if !w.correct(p.id, res.Output) {
			t.failed++
			continue
		}
		t.ok++
		if res.Cached {
			t.cached++
		}
		t.latencies = append(t.latencies, lat.Seconds()*1e3)
	}
}

// measure runs both connections' closed loops for budget of wall time
// (serveWarmJobs per connection for a zero budget) as one timed window.
func (w *serveWork) measure(m *meter, budget time.Duration) error {
	n := 0
	if budget == 0 {
		n = serveWarmJobs
	}
	if m.tr != nil {
		w.stats[0] = w.st.daemons[0].ServeStats()
	}
	var total serveTally
	var errs [serveConns]error
	_, err := m.window(func() error {
		start := time.Now()
		stop := func() bool { return budget > 0 && time.Since(start) >= budget }
		var wg sync.WaitGroup
		var mu sync.Mutex
		for c := range w.conns {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				t, err := w.loop(c, m.tr, stop, n)
				mu.Lock()
				total.add(t)
				errs[c] = err
				mu.Unlock()
			}(c)
		}
		wg.Wait()
		return nil
	})
	m.attempted += total.attempted
	m.failed += total.failed
	m.units += total.ok
	m.samples = append(m.samples, total.latencies...)
	if m.tr != nil {
		w.stats[1] = w.st.daemons[0].ServeStats()
		w.traced = total
	}
	if err != nil {
		return err
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func (w *serveWork) layer(m *meter) map[string]float64 {
	d := w.stats[1]
	d0 := w.stats[0]
	out := map[string]float64{
		"serve.submit_us": spanMedian(m.tr, "serve.submit") / 1e3,
	}
	if disp := d.Dispatches - d0.Dispatches; disp > 0 {
		out["serve.jobs_per_dispatch"] = float64(d.BatchedJobs-d0.BatchedJobs) / float64(disp)
	}
	if t := w.traced; t.ok > 0 {
		daemonHits := float64(d.CacheHits - d0.CacheHits)
		out["serve.daemon_hit_frac"] = daemonHits / float64(t.ok)
		out["serve.client_hit_frac"] = (float64(t.cached) - daemonHits) / float64(t.ok)
		out["serve.busy_frac"] = float64(t.busy) / float64(t.attempted)
	}
	return out
}

// nativeUnit runs jobs one at a time on an in-process native platform
// through an ordinary queue (write, launch, blocking read) and returns
// the median job time.
func (w *serveWork) nativeUnit() (float64, error) {
	plat, devs, err := nativeDevices(1)
	if err != nil {
		return 0, err
	}
	ctx, err := plat.CreateContext(devs)
	if err != nil {
		return 0, err
	}
	defer ctx.Release()
	prog, err := ctx.CreateProgramWithSource(serveSource)
	if err != nil {
		return 0, err
	}
	if err := prog.Build(nil, ""); err != nil {
		return 0, err
	}
	k, err := prog.CreateKernel("axpb")
	if err != nil {
		return 0, err
	}
	q, err := ctx.CreateQueue(devs[0])
	if err != nil {
		return 0, err
	}
	in, err := ctx.CreateBuffer(cl.MemReadOnly, 4*serveInts, nil)
	if err != nil {
		return 0, err
	}
	out, err := ctx.CreateBuffer(cl.MemWriteOnly, 4*serveInts, nil)
	if err != nil {
		return 0, err
	}
	for i, v := range []any{in, out, w.factor, int32(serveInts)} {
		if err := k.SetArg(i, v); err != nil {
			return 0, err
		}
	}
	got := make([]byte, 4*serveInts)
	i := 0
	ms, err := probe(200, func() error {
		id := jobID{0, i}
		i++
		if _, err := q.EnqueueWriteBuffer(in, false, 0, w.payload(id), nil); err != nil {
			return err
		}
		if _, err := q.EnqueueNDRangeKernel(k, []int{serveInts}, nil, nil); err != nil {
			return err
		}
		if _, err := q.EnqueueReadBuffer(out, true, 0, got, nil); err != nil {
			return err
		}
		if !w.correct(id, got) {
			return fmt.Errorf("native job %d does not match the oracle", id.i)
		}
		return nil
	})
	return ms, err
}
