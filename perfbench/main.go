// Command perfbench is the dOpenCL stack's real-time benchmark. It runs
// one named workload against an in-process deployment on loopback TCP
// (device manager, daemons with ExecReal devices, client platforms
// leasing devices through the manager) and prints one JSON result as its
// last line of standard output.
//
//	perfbench --workload mandelbrot --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result holds the end-to-end metrics; with --trace 1
// it holds the per-layer metrics of a traced run, and the spans are
// written under --out. See README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"slices"
	"sort"
	"sync"
	"syscall"
	"time"

	"dopencl/internal/cl"
	"dopencl/internal/kernel"
)

// setupReps is how many times a run sets the stack up; setup_s is the
// median. The last set-up is the one measured.
const setupReps = 31

// workload is one named scenario.
type workload interface {
	// setup starts a stack and builds the workload on it: daemon start
	// through lease, build, scatter and record. It is timed as set-up.
	setup(tr *tracer, rep int64) error
	// measure runs the timed phase for at least budget of program time.
	measure(m *meter, budget time.Duration) error
	// source is the workload's kernel source, for the compile probes.
	source() string
	// stack and context are the live stack and its context.
	stack() *stack
	context() cl.Context
	// nativeUnit times one unit on an in-process native.Platform with
	// the same device configuration, in milliseconds.
	nativeUnit() (float64, error)
	// layer returns the workload's own per-layer metrics for the traced
	// phase m; metrics it does not load are absent and report 0.
	layer(m *meter) map[string]float64
	// teardown releases the workload and stops its stack.
	teardown() error
}

var workloads = map[string]func(seed uint64) workload{
	"mandelbrot": newMandelWork,
	"jacobi":     newJacobiWork,
	"cg":         newCGWork,
	"serve":      newServeWork,
}

// meter tallies one timed phase.
type meter struct {
	st      *stack
	tr      *tracer
	elapsed time.Duration
	units   int
	// samples holds one per-unit time in ms for every successful op.
	samples   []float64
	attempted int
	failed    int
	wire      wireTotals
	proc      procTotals
}

// procTotals are process-wide counters read around program calls.
type procTotals struct {
	CPU        time.Duration
	AllocBytes float64
	GCCycles   float64
	WGCompiles float64
}

var procSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/cycles/total:gc-cycles"},
}

// maxRSSKB is the process's peak resident set so far, in KiB.
func maxRSSKB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return float64(ru.Maxrss)
}

func readProc() procTotals {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	s := append([]metrics.Sample(nil), procSamples...)
	metrics.Read(s)
	return procTotals{
		CPU:        time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		AllocBytes: float64(s[0].Value.Uint64()),
		GCCycles:   float64(s[1].Value.Uint64()),
		WGCompiles: float64(kernel.WorkGroupCompiles()),
	}
}

func (p procTotals) sub(o procTotals) procTotals {
	return procTotals{p.CPU - o.CPU, p.AllocBytes - o.AllocBytes, p.GCCycles - o.GCCycles, p.WGCompiles - o.WGCompiles}
}

func (p procTotals) add(o procTotals) procTotals {
	return procTotals{p.CPU + o.CPU, p.AllocBytes + o.AllocBytes, p.GCCycles + o.GCCycles, p.WGCompiles + o.WGCompiles}
}

// window runs f as program time: its wall time, and the link traffic,
// CPU time and allocation between its start and end, count towards the
// phase. Work the benchmark does between windows (oracles, resets)
// does not.
func (m *meter) window(f func() error) (time.Duration, error) {
	w0, p0 := m.st.wire.totals(), readProc()
	t0 := time.Now()
	err := f()
	d := time.Since(t0)
	p1, w1 := readProc(), m.st.wire.totals()
	m.elapsed += d
	m.wire = m.wire.add(w1.sub(w0))
	m.proc = m.proc.add(p1.sub(p0))
	return d, err
}

// op measures one operation of n units. A failed op counts its units
// as failed and ends the phase.
func (m *meter) op(n int, f func() error) error {
	d, err := m.window(f)
	m.attempted += n
	if err != nil {
		m.failed += n
		return err
	}
	m.units += n
	m.samples = append(m.samples, d.Seconds()*1e3/float64(n))
	return nil
}

// reject moves n counted units to failed: their output did not match
// the oracle.
func (m *meter) reject(n int) {
	m.units -= n
	m.failed += n
}

func (m *meter) perUnit(v float64) float64 {
	if m.units == 0 {
		return 0
	}
	return v / float64(m.units)
}

func (m *meter) rate() float64 {
	if m.elapsed <= 0 {
		return 0
	}
	return float64(m.units) / m.elapsed.Seconds()
}

// endToEnd names the metrics of an untraced run; every other metric
// belongs to the traced run.
var endToEnd = []string{"setup_s", "units_per_s", "unit_p50_ms", "warm_rss_mb"}

// metricUnits gives every metric's unit; the result prints each metric
// with it. The names and units match BENCHMARK.json.
var metricUnits = map[string]string{
	"setup_s":     "s",
	"units_per_s": "1/s",
	"unit_p50_ms": "ms",
	"warm_rss_mb": "MB",

	"error_rate":          "ratio",
	"unit_p99_ms":         "ms",
	"unit_samples":        "count",
	"trace.overhead_frac": "ratio",

	"devmgr.lease_ms":             "ms",
	"kernel.compile_ms":           "ms",
	"client.build_ms":             "ms",
	"kernel.wg_compiles_steady":   "count",
	"darray.scatter_ms":           "ms",
	"darray.record_ms":            "ms",
	"native.unit_ms":              "ms",
	"native.share":                "ratio",
	"sched.run_ms":                "ms",
	"sched.chunks":                "count",
	"sched.imbalance":             "ratio",
	"client.read_ms":              "ms",
	"darray.iterate_us":           "us",
	"darray.step_us":              "us",
	"darray.map_us":               "us",
	"darray.dot_us":               "us",
	"gcf.c2d_bytes_per_unit":      "B",
	"gcf.d2c_bytes_per_unit":      "B",
	"gcf.peer_bytes_per_unit":     "B",
	"gcf.c2d_segs_per_unit":       "count",
	"gcf.d2c_segs_per_unit":       "count",
	"gcf.peer_segs_per_unit":      "count",
	"coherence.peer_vs_halo_x":    "ratio",
	"serve.submit_us":             "us",
	"serve.jobs_per_dispatch":     "count",
	"serve.client_hit_frac":       "ratio",
	"serve.daemon_hit_frac":       "ratio",
	"serve.busy_frac":             "ratio",
	"proc.cpu_ms_per_unit":        "ms",
	"proc.alloc_bytes_per_unit":   "B",
	"proc.gc_cycles_per_s":        "1/s",
	"proc.goroutines_delta":       "count",
	"proc.rss_growth_kb_per_unit": "KB",
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// hostFacts label every result: where it ran and what kind of time it
// is. "real" keeps these numbers apart from the modeled-time series
// (simnet links, device TimeScale) of the dclbench reports.
type hostFacts struct {
	Label      string `json:"time_label"`
	Devices    string `json:"devices"`
	Transport  string `json:"transport"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Workload   string `json:"workload"`
	Seed       uint64 `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      bool   `json:"trace"`
}

type config struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	out      string
	commit   string
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: mandelbrot, jacobi, cg or serve")
	flag.Uint64Var(&cfg.seed, "seed", 1, "seed the workload's inputs are generated from")
	flag.IntVar(&cfg.seconds, "seconds", 20, "program time one run measures")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced run and reports per-layer metrics")
	flag.StringVar(&cfg.out, "out", ".bench_build/perfbench", "directory for the trace and result files")
	flag.StringVar(&cfg.commit, "commit", "unknown", "commit the binary was built from")
	flag.Parse()
	cfg.trace = trace == 1
	if _, ok := workloads[cfg.workload]; !ok || cfg.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", cfg.workload, cfg.seconds, trace)
		os.Exit(2)
	}
	time.AfterFunc(runLimit, func() {
		fmt.Fprintf(os.Stderr, "perfbench: run exceeded %v\n", runLimit)
		res := &result{Attempted: 1, Failed: 1, Metrics: map[string]metricValue{}}
		for name := range metricUnits {
			if slices.Contains(endToEnd, name) != cfg.trace {
				res.put(name, 0)
			}
		}
		emit(res)
	})
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	}
	if res == nil {
		os.Exit(1)
	}
	emit(res)
}

// runLimit bounds a whole run, set-up included: past it the run reports
// a failure, whatever call it is stuck in.
const runLimit = 170 * time.Second

var emitOnce sync.Once

// emit prints the result line and exits. It exits rather than returns
// because a hung call leaves goroutines blocked in the program.
func emit(res *result) {
	emitOnce.Do(func() {
		line, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			os.Exit(1)
		}
		fmt.Println(string(line))
		os.Exit(0)
	})
}

// run executes one run. It returns a result whenever the timed phase
// started, with correct=false when anything failed.
func run(cfg config) (*result, error) {
	host := hostFacts{
		Label:      "real",
		Devices:    "device.ExecReal, 1 VM worker per device",
		Transport:  "loopback TCP, no simnet",
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		GoVersion:  runtime.Version(),
		Commit:     cfg.commit,
		Workload:   cfg.workload,
		Seed:       cfg.seed,
		Seconds:    cfg.seconds,
		Trace:      cfg.trace,
	}
	hostLine, _ := json.Marshal(map[string]any{"host": host}) // plain struct: cannot fail
	fmt.Println(string(hostLine))

	// Inputs and oracles come from the seed before any set-up.
	w := workloads[cfg.workload](cfg.seed)
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}

	var setups []float64
	for rep := 0; rep < setupReps; rep++ {
		t0 := time.Now()
		err := w.setup(tr, int64(rep))
		setups = append(setups, time.Since(t0).Seconds())
		if err != nil {
			_ = w.teardown() // best effort: the set-up error is the one to report
			return nil, fmt.Errorf("set-up: %w", err)
		}
		if rep < setupReps-1 {
			if err := w.teardown(); err != nil {
				return nil, fmt.Errorf("teardown: %w", err)
			}
			settle()
		}
	}
	defer func() { _ = w.teardown() }() // the process exits right after

	st := w.stack()
	// Warm-up: lazy compilation, first-touch costs and cache fills finish
	// before timing.
	if err := w.measure(&meter{st: st}, 0); err != nil {
		return &result{Attempted: 1, Failed: 1, Metrics: map[string]metricValue{}}, fmt.Errorf("warm-up: %w", err)
	}
	// The peak resident set so far is the deployed stack's footprint. It
	// is taken before the timed phase because the darray workloads grow
	// without bound while they run (see proc.rss_growth_kb_per_unit): a
	// peak over the whole run would rise with every gain in throughput.
	warmRSS := maxRSSKB()

	budget := time.Duration(cfg.seconds) * time.Second
	if !cfg.trace {
		m := &meter{st: st}
		err := w.measure(m, budget)
		res := newResult(m, err)
		res.put("setup_s", median(setups))
		res.put("units_per_s", m.rate())
		res.put("unit_p50_ms", median(m.samples))
		res.put("warm_rss_mb", warmRSS/1024)
		return res, err
	}

	// Traced run: an untraced half then a traced half of the budget; the
	// difference in unit rate is the tracing overhead.
	plain := &meter{st: st}
	if err := w.measure(plain, budget/2); err != nil {
		return newResult(plain, err), err
	}
	from := tr.mark()
	g0, rss0 := runtime.NumGoroutine(), maxRSSKB()
	m := &meter{st: st, tr: tr}
	err := w.measure(m, budget/2)
	res := newResult(m, err)
	res.Attempted += plain.attempted
	res.Failed += plain.failed
	res.Correct = res.Correct && plain.failed == 0
	if err != nil {
		return res, err
	}
	goroutines, rssGrowth := runtime.NumGoroutine()-g0, maxRSSKB()-rss0

	compile, err := probe(5, func() error { _, err := kernel.Compile(w.source()); return err })
	if err != nil {
		return res, fmt.Errorf("compile probe: %w", err)
	}
	build, err := probe(3, func() error { return buildOnce(w.context(), w.source()) })
	if err != nil {
		return res, fmt.Errorf("build probe: %w", err)
	}
	nativeMs, err := w.nativeUnit()
	if err != nil {
		return res, fmt.Errorf("native probe: %w", err)
	}

	for name := range metricUnits {
		if !slices.Contains(endToEnd, name) {
			res.put(name, 0)
		}
	}
	unitMs := 0.0
	if plain.units > 0 {
		unitMs = plain.elapsed.Seconds() * 1e3 / float64(plain.units)
	}
	p99 := percentileOf(append([]float64(nil), m.samples...), 0.99)
	res.put("error_rate", float64(res.Failed)/float64(max(res.Attempted, 1)))
	res.put("unit_p99_ms", finite(p99.Value))
	res.put("unit_samples", float64(p99.Samples))
	if r := plain.rate(); r > 0 {
		res.put("trace.overhead_frac", (r-m.rate())/r)
	}
	res.put("devmgr.lease_ms", tr.medianPerUnit("devmgr.lease", from)/1e6)
	res.put("kernel.compile_ms", compile)
	res.put("client.build_ms", build)
	res.put("kernel.wg_compiles_steady", m.proc.WGCompiles)
	res.put("darray.scatter_ms", tr.medianPerUnit("darray.scatter", from)/1e6)
	res.put("darray.record_ms", tr.medianPerUnit("darray.record", from)/1e6)
	res.put("native.unit_ms", nativeMs)
	if unitMs > 0 {
		res.put("native.share", nativeMs/unitMs)
	}
	res.put("gcf.c2d_bytes_per_unit", m.perUnit(m.wire.C2DBytes))
	res.put("gcf.d2c_bytes_per_unit", m.perUnit(m.wire.D2CBytes))
	res.put("gcf.peer_bytes_per_unit", m.perUnit(m.wire.PeerBytes))
	res.put("gcf.c2d_segs_per_unit", m.perUnit(m.wire.C2DSegs))
	res.put("gcf.d2c_segs_per_unit", m.perUnit(m.wire.D2CSegs))
	res.put("gcf.peer_segs_per_unit", m.perUnit(m.wire.PeerSegs))
	res.put("proc.cpu_ms_per_unit", m.perUnit(m.proc.CPU.Seconds()*1e3))
	res.put("proc.alloc_bytes_per_unit", m.perUnit(m.proc.AllocBytes))
	if m.elapsed > 0 {
		res.put("proc.gc_cycles_per_s", m.proc.GCCycles/m.elapsed.Seconds())
	}
	res.put("proc.goroutines_delta", float64(goroutines))
	res.put("proc.rss_growth_kb_per_unit", m.perUnit(rssGrowth))
	for name, v := range w.layer(m) {
		res.put(name, v)
	}
	if err := writeTrace(cfg, host, res, tr); err != nil {
		return res, err
	}
	return res, nil
}

func newResult(m *meter, err error) *result {
	return &result{
		Correct:   err == nil && m.failed == 0 && m.units > 0,
		Attempted: max(m.attempted, 1),
		Failed:    m.failed,
		Metrics:   map[string]metricValue{},
	}
}

func (r *result) put(name string, v float64) {
	unit, ok := metricUnits[name]
	if !ok {
		panic("perfbench: metric without a unit: " + name)
	}
	r.Metrics[name] = metricValue{Value: finite(v), Unit: unit}
}

// finite maps NaN and infinities, which JSON cannot carry, to 0.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// spanMedian is the median duration (ns) of the spans named name.
func spanMedian(tr *tracer, name string) float64 {
	return finite(median(tr.durations(name)))
}

// settle lets a torn-down stack's goroutines finish exiting and
// collects its garbage, so the next set-up does not pay for the last
// one. It stops when the goroutine count has held still for 5 ms: a
// daemon's serve dispatcher never exits, so the count need not return
// to where it started.
func settle() {
	last, still := runtime.NumGoroutine(), 0
	for i := 0; i < 200 && still < 5; i++ {
		time.Sleep(time.Millisecond)
		n := runtime.NumGoroutine()
		if n == last {
			still++
		} else {
			last, still = n, 0
		}
	}
	runtime.GC()
}

// probe runs f n times and returns its median wall time in ms.
func probe(n int, f func() error) (float64, error) {
	var xs []float64
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := bounded("probe", f); err != nil {
			return 0, err
		}
		xs = append(xs, time.Since(t0).Seconds()*1e3)
	}
	return median(xs), nil
}

// buildOnce builds src on ctx through the client (Program.Build) and
// releases the program.
func buildOnce(ctx cl.Context, src string) error {
	p, err := ctx.CreateProgramWithSource(src)
	if err != nil {
		return err
	}
	if err := p.Build(nil, ""); err != nil {
		return err
	}
	return p.Release()
}

// writeTrace writes the traced run's spans (CSV) and a result file with
// the host facts, the metrics and each span name's total and self time.
func writeTrace(cfg config, host hostFacts, res *result, tr *tracer) error {
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(cfg.out, "spans-"+cfg.workload+".csv"))
	if err != nil {
		return err
	}
	if err := tr.writeCSV(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	summary := tr.summary()
	blob, err := json.MarshalIndent(map[string]any{
		"host": host, "result": res, "spans": summary,
	}, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(cfg.out, "trace-"+cfg.workload+".json"), append(blob, '\n'), 0o644); err != nil {
		return err
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(os.Stderr, "%-28s %8s %12s %12s\n", "span", "count", "total_ms", "self_ms")
	for _, s := range summary {
		fmt.Fprintf(os.Stderr, "%-28s %8d %12.3f %12.3f\n", s.Name, s.Count, s.TotalMs, s.SelfMs)
	}
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "%-28s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	return nil
}
