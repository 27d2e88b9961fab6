package main

import (
	"context"
	"errors"
	"fmt"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"

	"ace/internal/telemetry"
)

// opFunc runs one caller's next operation and returns the index of its
// kind in the workload's kind list. ctx carries the op's root span in
// a traced phase and nothing otherwise.
type opFunc func(ctx context.Context) (kind int, err error)

// wrongAnswer is an output-check failure. It aborts the run; it is
// never counted as a failed op.
type wrongAnswer struct{ msg string }

func (e *wrongAnswer) Error() string { return "wrong answer: " + e.msg }

func wrongf(format string, args ...any) error {
	return &wrongAnswer{msg: fmt.Sprintf(format, args...)}
}

func isWrong(err error) bool {
	var w *wrongAnswer
	return errors.As(err, &w)
}

// sample is one completed operation of a measured phase.
type sample struct {
	end  time.Duration // completion, from the phase's start
	dur  time.Duration
	kind uint8
}

// maxSamples bounds one caller's samples in a phase: a minute at over
// 60,000 ops per second.
const maxSamples = 1 << 22

// sampleStore holds one caller's samples outside the Go heap. mem_mb
// reads the Go runtime's memory, and a growing sample slice would put
// the benchmark's own record keeping, and the pauses of copying it,
// into the figure. Pages are touched only as samples arrive.
type sampleStore struct {
	mem []byte
	s   []sample
}

func newSampleStore() (*sampleStore, error) {
	mem, err := syscall.Mmap(-1, 0, maxSamples*int(unsafe.Sizeof(sample{})),
		syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("sample store: %w", err)
	}
	return &sampleStore{mem: mem, s: unsafe.Slice((*sample)(unsafe.Pointer(&mem[0])), maxSamples)[:0]}, nil
}

func (st *sampleStore) free() {
	st.s = nil
	_ = syscall.Munmap(st.mem) // only fails for a bad range, which Mmap returned
}

// phaseResult is what one closed-loop phase measured.
type phaseResult struct {
	samples   []sample
	attempted int64
	failed    int64 // ops that returned an error
	firstErr  error
	elapsed   time.Duration
	cpu       time.Duration      // process user+sys time
	peakMem   uint64             // Go runtime memory mapped minus released
	regs      map[string]int64   // counter deltas, summed over registries
	hists     map[string][]int64 // histogram bucket deltas
	rt        runtimeCounters
	spans     []spanRec // benchmark spans, traced phases only
	base      time.Time
}

// runtimeCounters are the process-wide Go runtime totals a phase
// differences.
type runtimeCounters struct{ allocs, allocBytes, gcCycles uint64 }

var rtSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/cycles/total:gc-cycles"},
	{Name: "/memory/classes/total:bytes"},
	{Name: "/memory/classes/heap/released:bytes"},
}

func readRuntime() (runtimeCounters, uint64) {
	s := make([]metrics.Sample, len(rtSamples))
	copy(s, rtSamples)
	metrics.Read(s)
	return runtimeCounters{s[0].Value.Uint64(), s[1].Value.Uint64(), s[2].Value.Uint64()},
		s[3].Value.Uint64() - s[4].Value.Uint64()
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// snapshotRegs sums every counter and histogram over the registries.
// A histogram's observed total is kept as one more counter, named
// <histogram>.sum_ns.
func snapshotRegs(regs []*telemetry.Registry) (map[string]int64, map[string][]int64) {
	counters := map[string]int64{}
	hists := map[string][]int64{}
	for _, r := range regs {
		s := r.Snapshot()
		for _, c := range s.Counters {
			counters[c.Name] += c.Value
		}
		for _, h := range s.Histograms {
			counters[h.Name+".sum_ns"] += int64(h.Sum)
			acc := hists[h.Name]
			if acc == nil {
				acc = make([]int64, len(h.Buckets))
				hists[h.Name] = acc
			}
			for i, b := range h.Buckets {
				acc[i] += b
			}
		}
	}
	return counters, hists
}

// runPhase drives the callers in a closed loop for d: each caller
// issues its next op only when the previous one returned. logs[i] is
// caller i's span recorder; when traced, every op runs under a fresh
// root trace whose span is named op.<kind>.
func runPhase(callers []opFunc, logs []*spanLog, traced bool, d time.Duration, regs []*telemetry.Registry, kinds []string) (*phaseResult, error) {
	res := &phaseResult{}
	c0, h0 := snapshotRegs(regs)
	rt0, _ := readRuntime()
	cpu0 := cpuTime()

	var peak atomic.Uint64
	samplerDone := make(chan struct{})
	samplerStopped := make(chan struct{})
	go func() {
		defer close(samplerStopped)
		t := time.NewTicker(20 * time.Millisecond)
		defer t.Stop()
		for {
			_, m := readRuntime()
			if m > peak.Load() {
				peak.Store(m)
			}
			select {
			case <-samplerDone:
				return
			case <-t.C:
			}
		}
	}()

	var abort atomic.Bool
	var mu sync.Mutex
	var abortErr error // a wrong answer, or a full sample store
	stores := make([]*sampleStore, len(callers))
	for i := range stores {
		st, err := newSampleStore()
		if err != nil {
			return nil, err
		}
		defer st.free()
		stores[i] = st
	}
	attempted := make([]int64, len(callers))
	failed := make([]int64, len(callers))
	firstErr := make([]error, len(callers))
	base := time.Now()
	deadline := base.Add(d)
	for _, l := range logs {
		l.on, l.base, l.spans = traced, base, l.spans[:0]
	}
	var wg sync.WaitGroup
	for i, op := range callers {
		wg.Add(1)
		go func(i int, op opFunc) {
			defer wg.Done()
			log, st := logs[i], stores[i]
			t0 := time.Now()
			for !abort.Load() && t0.Before(deadline) {
				ctx := context.Background()
				var root telemetry.SpanContext
				if traced {
					root = telemetry.NewTrace().NewChild()
					ctx = telemetry.WithSpanContext(ctx, root)
				}
				attempted[i]++
				kind, err := op(ctx)
				t1 := time.Now()
				if traced && err == nil {
					log.spans = append(log.spans, spanRec{trace: root.TraceID, id: root.SpanID, name: "op." + kinds[kind], start: t0.Sub(base), end: t1.Sub(base)})
				}
				switch {
				case err == nil && len(st.s) == cap(st.s):
					err = fmt.Errorf("more than %d ops by one caller", maxSamples)
					fallthrough
				case isWrong(err):
					mu.Lock()
					if abortErr == nil {
						abortErr = err
					}
					mu.Unlock()
					abort.Store(true)
				case err == nil:
					st.s = append(st.s, sample{end: t1.Sub(base), dur: t1.Sub(t0), kind: uint8(kind)})
				default:
					failed[i]++
					if firstErr[i] == nil {
						firstErr[i] = err
					}
				}
				t0 = t1
			}
		}(i, op)
	}
	wg.Wait()
	res.elapsed = time.Since(base)
	close(samplerDone)
	<-samplerStopped
	for _, l := range logs {
		l.on = false
	}
	if abortErr != nil {
		return nil, abortErr
	}
	res.cpu = cpuTime() - cpu0
	rt1, _ := readRuntime()
	res.rt = runtimeCounters{rt1.allocs - rt0.allocs, rt1.allocBytes - rt0.allocBytes, rt1.gcCycles - rt0.gcCycles}
	res.peakMem = peak.Load()
	c1, h1 := snapshotRegs(regs)
	res.regs = map[string]int64{}
	for k, v := range c1 {
		res.regs[k] = v - c0[k]
	}
	res.hists = map[string][]int64{}
	for k, v := range h1 {
		d := make([]int64, len(v))
		for i := range v {
			d[i] = v[i]
			if old := h0[k]; old != nil {
				d[i] -= old[i]
			}
		}
		res.hists[k] = d
	}
	for i := range callers {
		res.samples = append(res.samples, stores[i].s...)
		res.attempted += attempted[i]
		res.failed += failed[i]
		if res.firstErr == nil {
			res.firstErr = firstErr[i]
		}
		if traced {
			res.spans = append(res.spans, logs[i].spans...)
		}
	}
	res.base = base
	return res, nil
}

// retries is the number of calls any pool in the process retried — a
// busy reply (a shed) or a transport failure (a timeout or a dropped
// connection) — during the phase.
func (r *phaseResult) retries() int64 { return r.regs["pool.retries"] }

// failures counts every op that failed plus every retried call, so a
// shed absorbed by a pool retry still shows.
func (r *phaseResult) failures() int64 { return r.failed + r.retries() }

// windows splits the samples by completion time into n equal windows.
func (r *phaseResult) windows(n int) [][]sample {
	out := make([][]sample, n)
	for _, s := range r.samples {
		w := int(int64(s.end) * int64(n) / int64(r.elapsed))
		if w >= n {
			w = n - 1
		}
		out[w] = append(out[w], s)
	}
	return out
}

// latencies returns the ascending durations of the samples of the
// given kind (all kinds when kind < 0).
func latencies(samples []sample, kind int) []time.Duration {
	var out []time.Duration
	for _, s := range samples {
		if kind < 0 || int(s.kind) == kind {
			out = append(out, s.dur)
		}
	}
	sortDurations(out)
	return out
}

// kindP50 is the mean of each op kind's median latency, weighted by
// the kind's share of completed ops. Where a workload mixes fast and
// slow kinds in about equal shares (gets and puts), the median of all
// ops falls in the gap between them, and a small shift in the mix
// moves it far; each kind's own median does not.
func kindP50(samples []sample, kinds int) time.Duration {
	if len(samples) == 0 {
		return 0
	}
	var sum float64
	for k := 0; k < kinds; k++ {
		if l := latencies(samples, k); len(l) > 0 {
			sum += float64(len(l)) * float64(percentile(l, 50))
		}
	}
	return time.Duration(sum / float64(len(samples)))
}

// minTailSamples is the per-window sample count a p99 needs so that at
// least ten samples lie beyond it.
const minTailSamples = 1000

// throughputAndTail returns the median over windows of completed ops
// per second and of the p99 op latency. The run is cut into up to twenty
// windows, fewer when a window would hold too few samples for a p99;
// medians over windows keep one stall (a GC, a neighbour's burst) from
// setting the figure.
func (r *phaseResult) throughputAndTail() (opsPerS float64, p99 time.Duration, nWindows int) {
	rates, tails := r.windowStats()
	return median(rates), time.Duration(median(tails)), len(rates)
}

// windowStats returns each window's ops per second and p99 in ns.
func (r *phaseResult) windowStats() (rates, tails []float64) {
	n := len(r.samples) / minTailSamples
	n = max(1, min(20, n))
	winDur := r.elapsed.Seconds() / float64(n)
	for _, w := range r.windows(n) {
		rates = append(rates, float64(len(w))/winDur)
		tails = append(tails, float64(percentile(latencies(w, -1), 99)))
	}
	return rates, tails
}
