package main

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"sort"
	"sync"
	"time"

	"dopencl/internal/cl"
	"dopencl/internal/client"
	"dopencl/internal/daemon"
	"dopencl/internal/device"
	"dopencl/internal/native"
	"dopencl/internal/serve"
	"dopencl/internal/simnet"
)

// The serve-plane benchmark (dclbench -serve): 1000 concurrent serve
// clients flood one daemon with small kernel jobs over simnet, and the
// suite compares three ways of running the identical workload:
//
//   - batched: serve sessions + the daemon's coalescing dispatcher
//   - unbatched: the classic per-job path (write input, launch, blocking
//     read) through ordinary command queues
//   - warm cache: resubmits of an already-served job, which must resolve
//     from the session result cache with zero wire bytes and zero daemon
//     dispatches
//
// The PR 8 floors are enforced here, so the CI smoke fails when they
// regress: batched >= 3x unbatched jobs/s, batched p99 bounded,
// warm-cache hits ship zero bytes and zero dispatches.

// benchEntry is one result in the -serve JSON report. Each numeric field
// is present only where meaningful.
type benchEntry struct {
	Name         string   `json:"name"`
	ItersPS      float64  `json:"iters_per_s,omitempty"`
	SpeedupX     float64  `json:"speedup_x,omitempty"`
	BytesPerIter float64  `json:"bytes_per_iter,omitempty"`
	P99Ms        *float64 `json:"p99_ms,omitempty"` // tail latency where measured
}

type benchReport struct {
	Generated  string       `json:"generated"`
	Benchmarks []benchEntry `json:"benchmarks"`
}

const (
	serveClients   = 1000 // concurrent serve sessions ("clients")
	serveConns     = 100  // physical connections they share
	serveJobsEach  = 8    // jobs per client
	serveJobInts   = 8    // int32 elements per job payload
	serveRounds    = 3    // best-of rounds per phase (GC/scheduler noise)
	serveP99Bound  = 2 * time.Second
	serveSpeedupX  = 3.0
	serveBenchNode = "serve-bench-node"
)

const serveBenchSrc = `
kernel void axpb(const global int* in, global int* out, int f, int n) {
	int i = get_global_id(0);
	if (i < n) { out[i] = in[i] * f + 1; }
}
`

// serveTenant is one connection's worth of clients: a platform, its
// context, device and built program shared by perConn serve sessions.
type serveTenant struct {
	name string
	ctx  cl.Context
	prog cl.Program
	k    cl.Kernel
	dev  cl.Device
}

func serveBenchDaemon(nw *simnet.Network, window time.Duration) (*daemon.Daemon, error) {
	np := native.NewPlatform("native-serve", "bench", []device.Config{device.TestCPU("cpu")})
	d, err := daemon.New(daemon.Config{Name: serveBenchNode, Platform: np, ServeWindow: window, ServeMaxBatch: 128})
	if err != nil {
		return nil, err
	}
	l, err := nw.Listen(serveBenchNode)
	if err != nil {
		return nil, err
	}
	go func() { _ = d.Serve(l) }()
	return d, nil
}

// serveBenchTenants connects sequentially: simnet's accept queue is
// finite and connection setup is not part of any measured phase.
func serveBenchTenants(nw *simnet.Network, conns int) ([]*serveTenant, error) {
	tenants := make([]*serveTenant, conns)
	for i := 0; i < conns; i++ {
		id := fmt.Sprintf("serve-client-%d", i)
		fail := func(err error) ([]*serveTenant, error) { return nil, fmt.Errorf("%s: %w", id, err) }
		plat := client.NewPlatform(client.Options{
			Dialer:     func(a string) (net.Conn, error) { return nw.DialFrom(id, a) },
			ClientName: id,
		})
		if _, err := plat.ConnectServer(serveBenchNode); err != nil {
			return fail(err)
		}
		devs, err := plat.Devices(cl.DeviceTypeAll)
		if err != nil {
			return fail(err)
		}
		ctx, err := plat.CreateContext(devs)
		if err != nil {
			return fail(err)
		}
		prog, err := ctx.CreateProgramWithSource(serveBenchSrc)
		if err != nil {
			return fail(err)
		}
		if err := prog.Build(nil, ""); err != nil {
			return fail(err)
		}
		k, err := prog.CreateKernel("axpb")
		if err != nil {
			return fail(err)
		}
		tenants[i] = &serveTenant{name: id, ctx: ctx, prog: prog, k: k, dev: devs[0]}
	}
	return tenants, nil
}

func (tn *serveTenant) openServe() (*client.ServeSession, error) {
	return tn.ctx.(*client.Context).OpenServe(tn.dev, 0, 0)
}

// serveP99 returns the 99th-percentile latency; lat is sorted in place.
func serveP99(lat []time.Duration) time.Duration {
	if len(lat) == 0 {
		return 0
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	idx := (len(lat) * 99) / 100
	if idx >= len(lat) {
		idx = len(lat) - 1
	}
	return lat[idx]
}

func firstErr(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

type serveFutureAt struct {
	fut *serve.Future
	at  time.Time
	idx int
}

// runServeBatched drives the workload through serve sessions: every
// client submits its jobs (inputs distinct per job AND per round, so no
// cache tier absorbs any of the measured work) and then waits for all
// futures. Returns jobs/s and the per-job p99.
func runServeBatched(tenants []*serveTenant, perConn, round int) (float64, time.Duration, error) {
	total := len(tenants) * perConn * serveJobsEach
	lat := make([]time.Duration, total)
	errs := make([]error, len(tenants)*perConn)

	// Session setup happens outside the measured region — both phases
	// measure steady-state job throughput, not connection bring-up.
	sessions := make([]*client.ServeSession, len(tenants)*perConn)
	for t, tn := range tenants {
		for s := 0; s < perConn; s++ {
			ses, err := tn.openServe()
			if err != nil {
				return 0, 0, err
			}
			defer ses.Close()
			sessions[t*perConn+s] = ses
		}
	}

	var wg sync.WaitGroup
	start := time.Now()
	for t, tn := range tenants {
		for s := 0; s < perConn; s++ {
			wg.Add(1)
			go func(tn *serveTenant, cid int) {
				defer wg.Done()
				ses := sessions[cid]
				futs := make([]serveFutureAt, 0, serveJobsEach)
				for j := 0; j < serveJobsEach; j++ {
					input := make([]byte, 4*serveJobInts)
					binary.LittleEndian.PutUint32(input, uint32(round<<24|cid*serveJobsEach+j))
					t0 := time.Now()
					fut, err := ses.Submit(client.JobSpec{
						Kernel:   tn.k,
						Args:     []any{nil, nil, int32(3), int32(serveJobInts)},
						InputArg: 0, OutputArg: 1,
						Input:   input,
						OutSize: 4 * serveJobInts,
						Global:  []int{serveJobInts},
					})
					if err != nil {
						errs[cid] = err
						return
					}
					futs = append(futs, serveFutureAt{fut: fut, at: t0, idx: cid*serveJobsEach + j})
				}
				for _, f := range futs {
					if _, err := f.fut.Wait(); err != nil {
						errs[cid] = err
						return
					}
					lat[f.idx] = time.Since(f.at)
				}
			}(tn, t*perConn+s)
		}
	}
	wg.Wait()
	elapsed := time.Since(start)
	if err := firstErr(errs); err != nil {
		return 0, 0, err
	}
	return float64(total) / elapsed.Seconds(), serveP99(lat), nil
}

// runServeUnbatched drives the identical workload through the classic
// per-job path: each client owns a queue and an input/output buffer pair
// and runs write, launch, blocking read per job.
func runServeUnbatched(tenants []*serveTenant, perConn, round int) (float64, time.Duration, error) {
	total := len(tenants) * perConn * serveJobsEach
	lat := make([]time.Duration, total)
	errs := make([]error, len(tenants)*perConn)
	// Per-client queue, buffers and kernel are created outside the
	// measured region, mirroring the batched phase's pre-opened sessions.
	type lane struct {
		q       cl.Queue
		in, out cl.Buffer
		k       cl.Kernel
	}
	lanes := make([]lane, len(tenants)*perConn)
	for t, tn := range tenants {
		for s := 0; s < perConn; s++ {
			cid := t*perConn + s
			q, err := tn.ctx.CreateQueue(tn.dev)
			if err != nil {
				return 0, 0, err
			}
			in, err := tn.ctx.CreateBuffer(cl.MemReadWrite, 4*serveJobInts, nil)
			if err != nil {
				return 0, 0, err
			}
			out, err := tn.ctx.CreateBuffer(cl.MemReadWrite, 4*serveJobInts, nil)
			if err != nil {
				return 0, 0, err
			}
			k, err := tn.prog.CreateKernel("axpb")
			if err != nil {
				return 0, 0, err
			}
			for i, v := range []any{in, out, int32(3), int32(serveJobInts)} {
				if err := k.SetArg(i, v); err != nil {
					return 0, 0, err
				}
			}
			lanes[cid] = lane{q: q, in: in, out: out, k: k}
		}
	}

	var wg sync.WaitGroup
	start := time.Now()
	for t, tn := range tenants {
		for s := 0; s < perConn; s++ {
			wg.Add(1)
			go func(tn *serveTenant, cid int) {
				defer wg.Done()
				q, k, in, out := lanes[cid].q, lanes[cid].k, lanes[cid].in, lanes[cid].out
				input := make([]byte, 4*serveJobInts)
				output := make([]byte, 4*serveJobInts)
				for j := 0; j < serveJobsEach; j++ {
					binary.LittleEndian.PutUint32(input, uint32(round<<24|cid*serveJobsEach+j))
					t0 := time.Now()
					if _, err := q.EnqueueWriteBuffer(in, false, 0, input, nil); err != nil {
						errs[cid] = err
						return
					}
					if _, err := q.EnqueueNDRangeKernel(k, []int{serveJobInts}, nil, nil); err != nil {
						errs[cid] = err
						return
					}
					if _, err := q.EnqueueReadBuffer(out, true, 0, output, nil); err != nil {
						errs[cid] = err
						return
					}
					lat[cid*serveJobsEach+j] = time.Since(t0)
				}
			}(tn, t*perConn+s)
		}
	}
	wg.Wait()
	elapsed := time.Since(start)
	// Release the lanes: leaking thousands of queues, buffers and kernels
	// per round would bloat the live heap (and the daemon's tables) for
	// every phase that runs after this one.
	for _, ln := range lanes {
		_ = ln.k.Release()
		_ = ln.in.Release()
		_ = ln.out.Release()
		_ = ln.q.Release()
	}
	if err := firstErr(errs); err != nil {
		return 0, 0, err
	}
	return float64(total) / elapsed.Seconds(), serveP99(lat), nil
}

// runServeWarmCache measures resubmits of one already-served job: every
// hit must resolve from the session cache with zero wire traffic and
// zero daemon dispatches (simnet byte accounting proves it).
func runServeWarmCache(nw *simnet.Network, d *daemon.Daemon, tn *serveTenant) (hitsPS, bytesPerHit float64, dispatchDelta int64, err error) {
	const iters = 2000
	ses, err := tn.openServe()
	if err != nil {
		return 0, 0, 0, err
	}
	defer ses.Close()
	input := make([]byte, 4*serveJobInts)
	binary.LittleEndian.PutUint32(input, 0xfeedface)
	spec := client.JobSpec{
		Kernel:   tn.k,
		Args:     []any{nil, nil, int32(7), int32(serveJobInts)},
		InputArg: 0, OutputArg: 1,
		Input:   input,
		OutSize: 4 * serveJobInts,
		Global:  []int{serveJobInts},
	}
	submit := func() (bool, error) {
		fut, err := ses.Submit(spec)
		if err != nil {
			return false, err
		}
		res, err := fut.Wait()
		if err != nil {
			return false, err
		}
		return res.Cached, nil
	}
	if _, err := submit(); err != nil { // cold: primes the session cache
		return 0, 0, 0, err
	}
	up0, down0 := nw.BytesSent(tn.name, serveBenchNode), nw.BytesSent(serveBenchNode, tn.name)
	disp0 := d.ServeStats().Dispatches
	start := time.Now()
	for i := 0; i < iters; i++ {
		cached, err := submit()
		if err != nil {
			return 0, 0, 0, err
		}
		if !cached {
			return 0, 0, 0, fmt.Errorf("warm resubmit %d missed the cache", i)
		}
	}
	elapsed := time.Since(start)
	up := nw.BytesSent(tn.name, serveBenchNode) - up0
	down := nw.BytesSent(serveBenchNode, tn.name) - down0
	return float64(iters) / elapsed.Seconds(), float64(up+down) / iters,
		d.ServeStats().Dispatches - disp0, nil
}

// runServeBench executes the serve suite, enforces the floors and writes
// the JSON report to path.
func runServeBench(path string) error {
	perConn := serveClients / serveConns
	nw := simnet.NewNetwork(simnet.LinkConfig{LatencySec: 100e-6})
	d, err := serveBenchDaemon(nw, time.Millisecond)
	if err != nil {
		return err
	}
	tenants, err := serveBenchTenants(nw, serveConns)
	if err != nil {
		return err
	}

	// Both measured phases are CPU-bound on the runner, so any single
	// round is hostage to GC and scheduler timing. Each phase runs
	// serveRounds times and the floors gate the best round of each —
	// capability, not noise — while a real regression still fails.
	unbatchedPS, unbatchedP99 := 0.0, time.Duration(0)
	for r := 0; r < serveRounds; r++ {
		ps, p99, err := runServeUnbatched(tenants, perConn, r)
		if err != nil {
			return fmt.Errorf("unbatched phase: %w", err)
		}
		if ps > unbatchedPS {
			unbatchedPS, unbatchedP99 = ps, p99
		}
	}
	batchedPS, batchedP99 := 0.0, time.Duration(0)
	for r := 0; r < serveRounds; r++ {
		ps, p99, err := runServeBatched(tenants, perConn, serveRounds+r)
		if err != nil {
			return fmt.Errorf("batched phase: %w", err)
		}
		if ps > batchedPS {
			batchedPS, batchedP99 = ps, p99
		}
	}
	st := d.ServeStats()
	jobsPerDispatch := 0.0
	if st.Dispatches > 0 {
		jobsPerDispatch = float64(st.BatchedJobs) / float64(st.Dispatches)
	}
	warmPS, warmBytes, warmDispatches, err := runServeWarmCache(nw, d, tenants[0])
	if err != nil {
		return fmt.Errorf("warm-cache phase: %w", err)
	}

	speedup := batchedPS / unbatchedPS
	fmt.Printf("serve bench: %d clients x %d jobs (%d ints each) over %d connections\n",
		serveClients, serveJobsEach, serveJobInts, serveConns)
	fmt.Printf("  unbatched: %9.0f jobs/s   p99 %8.2fms\n", unbatchedPS, unbatchedP99.Seconds()*1e3)
	fmt.Printf("  batched:   %9.0f jobs/s   p99 %8.2fms   %.1f jobs/dispatch   speedup %.2fx\n",
		batchedPS, batchedP99.Seconds()*1e3, jobsPerDispatch, speedup)
	fmt.Printf("  warm hits: %9.0f hits/s   %.1f bytes/hit   %d daemon dispatches\n",
		warmPS, warmBytes, warmDispatches)

	// The PR 8 floors: the bench (and the CI smoke that runs it) fails
	// when any of them is violated.
	if speedup < serveSpeedupX {
		return fmt.Errorf("batched path is %.2fx the unbatched path, floor is %.1fx", speedup, serveSpeedupX)
	}
	if batchedP99 > serveP99Bound {
		return fmt.Errorf("batched p99 %v above the %v bound", batchedP99, serveP99Bound)
	}
	if warmBytes != 0 || warmDispatches != 0 {
		return fmt.Errorf("warm cache hits shipped %.1f bytes/hit and %d dispatches, want zero", warmBytes, warmDispatches)
	}

	b99 := batchedP99.Seconds() * 1e3
	u99 := unbatchedP99.Seconds() * 1e3
	rep := benchReport{
		Generated: time.Now().UTC().Format(time.RFC3339),
		Benchmarks: []benchEntry{
			{Name: "serve_batched_jobs", ItersPS: batchedPS, SpeedupX: speedup, P99Ms: &b99},
			{Name: "serve_unbatched_jobs", ItersPS: unbatchedPS, P99Ms: &u99},
			{Name: "serve_jobs_per_dispatch", ItersPS: jobsPerDispatch},
			{Name: "serve_warm_cache_hits", ItersPS: warmPS, BytesPerIter: warmBytes},
		},
	}
	blob, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(blob, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("%s\n", blob)
	fmt.Printf("serve bench report written to %s\n", path)
	return nil
}
