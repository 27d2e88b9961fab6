// Command perfbench is the ACE benchmark: four closed-loop workloads,
// each driven by two callers against real daemons, a pstore replica
// group and the service directory on loopback, all in this process.
//
// An untraced run (-trace 0) sets the workload up a fixed number of
// times (see workloads), warms it, measures it for -seconds, checks
// every output and prints the end-to-end metrics. A traced run
// (-trace 1) splits -seconds between an untraced phase, a phase in
// which every op carries a trace, paired short untraced and traced
// windows for the tracing overhead, and the workload's stand-alone
// measurement, and prints the per-layer metrics. The last line of
// standard output is one JSON object; a wrong answer exits 1 without
// one and names the seed.
//
// See README.md in this directory for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"syscall"
	"time"
)

// workloadDef is one workload's set-up and the number of times an
// untraced run sets it up. The counts are fixed, sized so that the
// set-ups of one run take from a quarter of a second (call, whose
// set-up is under a millisecond) to about eight (kv-read, which
// preloads 10,000 keys). setup_s is their median, and the last set-up
// is the one measured.
type workloadDef struct {
	setup  func(*env, []*spanLog) (*system, error)
	setups int
}

var workloads = map[string]workloadDef{
	"call":             {setupCall, 301},
	"kv-read":          {setupKV(kvRead), 5},
	"kv-write-durable": {setupKV(kvWriteDurable), 7},
	"directory":        {setupDirectory, 15},
}

// warmup runs the loop before timing, so connections are dialled,
// leases granted and the WAL past its first snapshot.
const warmup = 2 * time.Second

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: call, kv-read, kv-write-durable or directory")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Int("seconds", 10, "seconds to measure")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer measurement")
	workdir := flag.String("workdir", ".bench_build", "directory for scratch data, span dumps and layer reports")
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	b := &bench{name: *name, seed: *seed, d: time.Duration(*seconds) * time.Second, workdir: *workdir}
	res, err := b.run(w, *trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %v\n", *name, *seed, err)
		if isWrong(err) {
			os.Exit(1)
		}
		os.Exit(2)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(2)
	}
	fmt.Println(string(line))
}

type bench struct {
	name    string
	seed    int64
	d       time.Duration
	workdir string
	logs    []*spanLog
}

func (b *bench) run(w workloadDef, traced bool) (*result, error) {
	for _, m := range append(append([]metricSpec(nil), endToEnd...), perLayer...) {
		if !validMetricName(m.name) {
			return nil, fmt.Errorf("metric name %q breaks the naming rule", m.name)
		}
	}
	e := &env{seed: b.seed, workdir: b.workdir}
	if err := os.MkdirAll(filepath.Join(b.workdir, "tmp"), 0o755); err != nil {
		return nil, err
	}
	for c := 0; c < callers; c++ {
		b.logs = append(b.logs, &spanLog{})
	}
	var sys *system
	var setupTimes []float64
	setups := w.setups
	if traced {
		setups = 1 // a traced run reports no setup_s
	}
	for len(setupTimes) < setups {
		if sys != nil {
			// Each set-up starts from the same state: the last one's
			// goroutines collected and its deleted files written back,
			// so a set-up's fsyncs do not pay for its predecessor.
			sys.close()
			runtime.GC()
			syscall.Sync()
		}
		t0 := time.Now()
		s, err := w.setup(e, b.logs)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupTimes = append(setupTimes, time.Since(t0).Seconds())
		sys = s
	}
	defer sys.close()
	// Write back what set-up left dirty (earlier set-ups' logs too), so
	// the measured phase does not pay for it.
	syscall.Sync()
	if _, err := runPhase(sys.callers, b.logs, false, warmup, nil, sys.kinds); err != nil {
		return nil, err
	}
	runtime.GC()
	fmt.Printf("workload %s seed %d: closed loop, %d callers, %v measured\n", b.name, b.seed, callers, b.d)
	if traced {
		return b.traced(sys)
	}
	p, err := runPhase(sys.callers, b.logs, false, b.d, sys.regs, sys.kinds)
	if err != nil {
		return nil, err
	}
	if err := finalChecks(sys, p); err != nil {
		return nil, err
	}
	rate, p99, windows := p.throughputAndTail()
	rates, tails := p.windowStats()
	n := len(p.samples)
	vals := map[string]float64{
		"setup_s":       median(setupTimes),
		"ops_per_s":     rate,
		"kind_p50_us":   us(kindP50(p.samples, len(sys.kinds))),
		"op_p99_us":     us(p99),
		"cpu_us_per_op": us(p.cpu) / float64(n),
		"mem_mb":        float64(p.peakMem) / 1e6,
	}
	notes := map[string]string{
		"setup_s":     fmt.Sprintf("median of %d set-ups, min %.6f, max %.6f", len(setupTimes), slices.Min(setupTimes), slices.Max(setupTimes)),
		"ops_per_s":   fmt.Sprintf("median of %d windows, %d ops", windows, n),
		"kind_p50_us": fmt.Sprintf("%d kinds, n=%d", len(sys.kinds), n),
		"op_p99_us":   fmt.Sprintf("median of %d window p99s", windows),
	}
	for _, m := range endToEnd {
		fmt.Printf("  %-22s %14.4f %-6s %s\n", m.name, vals[m.name], m.unit, notes[m.name])
	}
	fmt.Printf("  windows: ops/s %.0f\n", rates)
	fmt.Printf("  windows: p99 us %.0f\n", scale(tails, 1e-3))
	// Latency by op kind: the median and the highest percentile with at
	// least ten samples beyond it.
	for k, kind := range sys.kinds {
		l := latencies(p.samples, k)
		if len(l) == 0 {
			continue
		}
		line := fmt.Sprintf("  %-22s %14.4f %-6s n=%d", kind+"_p50_us", us(percentile(l, 50)), "us", len(l))
		if q, ok := tailPercentile(len(l)); ok && q > 50 {
			line += fmt.Sprintf(", p%g %.1f us", q, us(percentile(l, q)))
		}
		fmt.Println(line)
	}
	fmt.Printf("  %-22s %14.6f %-6s %d of %d attempted (errors %d, pool retries %d)\n", "failed_ratio",
		ratio(float64(p.failures()), float64(p.attempted)), "ratio", p.failures(), p.attempted, p.failed, p.retries())
	if p.firstErr != nil {
		fmt.Printf("  first error: %v\n", p.firstErr)
	}
	return newResult(p.attempted, p.failures(), endToEnd, vals), nil
}

// finalChecks runs the workload's end-of-run checks and the one every
// workload shares: no bounded read may have been caught stale.
func finalChecks(sys *system, phases ...*phaseResult) error {
	for _, p := range phases {
		if v := p.regs["pstore.staleness.violations"]; v != 0 {
			return wrongf("pstore.staleness_violations is %d, want 0", v)
		}
	}
	if sys.check == nil {
		return nil
	}
	return sys.check()
}

// traced runs the per-layer measurement.
func (b *bench) traced(sys *system) (*result, error) {
	phases := 3 // untraced, traced, and the overhead pairs
	if sys.extra != nil {
		phases++
	}
	share := b.d / time.Duration(phases)
	untraced, err := runPhase(sys.callers, b.logs, false, share, sys.regs, sys.kinds)
	if err != nil {
		return nil, err
	}
	runtime.GC()
	traced, err := runPhase(sys.callers, b.logs, true, share, sys.regs, sys.kinds)
	if err != nil {
		return nil, err
	}
	if err := finalChecks(sys, untraced, traced); err != nil {
		return nil, err
	}
	ids := map[uint64]bool{}
	for _, s := range traced.spans {
		ids[s.trace] = true
	}
	spans := append(traced.spans, collectDaemonSpans(sys.bufs, traced.base, ids)...)
	out := layerMetrics(sys, untraced, traced, spans)
	overhead, pairs, err := tracingOverhead(sys, b.logs, share)
	if err != nil {
		return nil, err
	}
	if err := finalChecks(sys, pairs...); err != nil {
		return nil, err
	}
	out["trace.overhead_pct"] = overhead
	attempted, failed := untraced.attempted+traced.attempted, untraced.failures()+traced.failures()
	for _, p := range pairs {
		attempted, failed = attempted+p.attempted, failed+p.failures()
	}
	out["failed_ratio"] = ratio(float64(failed), float64(attempted))
	if sys.extra != nil {
		if err := sys.extra(share, untraced, out); err != nil {
			return nil, err
		}
	}
	enc, parse, size, err := cmdlangCost(sys.requests)
	if err != nil {
		return nil, err
	}
	out["cmdlang.encode_ns"], out["cmdlang.parse_ns"], out["cmdlang.request_bytes"] = enc, parse, size

	summary := summarizeSpans(spans)
	fmt.Println("  span                                        count    p50_us  self_p50_us")
	for _, s := range summary {
		fmt.Printf("  %-40s %9d %9.1f %12.1f\n", s.Name, s.Count, s.P50Us, s.SelfP50Us)
	}
	for _, m := range perLayer {
		fmt.Printf("  %-34s %14.4f %s\n", m.name, out[m.name], m.unit)
	}
	dump := filepath.Join(b.workdir, "spans-"+b.name+".tsv")
	if err := dumpSpans(dump, spans); err != nil {
		return nil, err
	}
	report := map[string]any{"workload": b.name, "seed": b.seed, "metrics": out, "spans": summary}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return nil, err
	}
	layersFile := filepath.Join(b.workdir, "layers-"+b.name+".json")
	if err := os.WriteFile(layersFile, append(data, '\n'), 0o644); err != nil {
		return nil, err
	}
	fmt.Printf("  spans written to %s, layer report to %s\n", dump, layersFile)
	return newResult(attempted, failed, perLayer, out), nil
}

// overheadPairs is the number of untraced/traced window pairs
// trace.overhead_pct compares.
const overheadPairs = 8

// tracingOverhead runs overheadPairs pairs of short untraced and
// traced windows over d, alternating which of a pair goes first, and
// returns 100 × (1 − the median of the pairs' traced/untraced
// throughput ratios) with the windows it ran. The host's speed drifts
// over tens of seconds; within a pair the drift cancels.
func tracingOverhead(sys *system, logs []*spanLog, d time.Duration) (float64, []*phaseResult, error) {
	win := d / (2 * overheadPairs)
	var ratios []float64
	var windows []*phaseResult
	for i := 0; i < overheadPairs; i++ {
		var rate [2]float64 // untraced, traced
		for j := 0; j < 2; j++ {
			traced := (i+j)%2 == 1
			p, err := runPhase(sys.callers, logs, traced, win, sys.regs, sys.kinds)
			if err != nil {
				return 0, nil, err
			}
			windows = append(windows, p)
			if traced {
				rate[1] = ratio(float64(len(p.samples)), p.elapsed.Seconds())
			} else {
				rate[0] = ratio(float64(len(p.samples)), p.elapsed.Seconds())
			}
		}
		ratios = append(ratios, ratio(rate[1], rate[0]))
	}
	return 100 * (1 - median(ratios)), windows, nil
}

func scale(v []float64, f float64) []float64 {
	out := make([]float64, len(v))
	for i, x := range v {
		out[i] = x * f
	}
	return out
}

func newResult(attempted, failed int64, specs []metricSpec, vals map[string]float64) *result {
	r := &result{Correct: true, Attempted: attempted, Failed: failed, Metrics: map[string]metricOut{}}
	for _, m := range specs {
		v := vals[m.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		r.Metrics[m.name] = metricOut{Value: v, Unit: m.unit}
	}
	return r
}
