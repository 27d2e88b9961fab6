package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"

	"ace/internal/telemetry"
)

func TestPercentileNearestRank(t *testing.T) {
	var d []time.Duration
	for i := 1; i <= 100; i++ {
		d = append(d, time.Duration(i))
	}
	for _, tc := range []struct {
		q    float64
		want time.Duration
	}{{50, 50}, {99, 99}, {99.9, 100}, {1, 1}, {0.001, 1}} {
		if got := percentile(d, tc.q); got != tc.want {
			t.Errorf("p%g of 1..100 = %d, want %d", tc.q, got, tc.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("p50 of nothing = %d, want 0", got)
	}
}

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{19, 0, false},  // the median, rank 10, leaves nine beyond
		{20, 50, true},  // rank 10 of 20 leaves ten
		{99, 50, true},  // p90 at rank 90 leaves nine
		{100, 90, true}, // p90 at rank 90 leaves ten
		{999, 90, true},
		{1000, 99, true},
		{9999, 99, true},
		{10000, 99.9, true},
		{1000000, 99.999, true},
	} {
		got, ok := tailPercentile(tc.n)
		if ok != tc.ok || got != tc.want {
			t.Errorf("tailPercentile(%d) = %g, %v; want %g, %v", tc.n, got, ok, tc.want, tc.ok)
		}
	}
	// Whatever it picks, at least ten samples lie strictly beyond it.
	for n := 20; n < 5000; n += 7 {
		q, _ := tailPercentile(n)
		d := make([]time.Duration, n)
		for i := range d {
			d[i] = time.Duration(i)
		}
		if beyond := n - 1 - int(percentile(d, q)); beyond < 10 {
			t.Fatalf("n=%d: p%g has %d samples beyond", n, q, beyond)
		}
	}
}

func TestPhaseTailUsesWindowsWithEnoughSamples(t *testing.T) {
	p := &phaseResult{elapsed: 10 * time.Second}
	for i := 0; i < 5000; i++ {
		p.samples = append(p.samples, sample{end: time.Duration(i) * 2 * time.Millisecond, dur: time.Duration(i%50+1) * time.Microsecond})
	}
	rate, p99, n := p.throughputAndTail()
	if n != 5 {
		t.Fatalf("windows = %d, want 5 (5000 samples at 1000 per window)", n)
	}
	if rate != 500 {
		t.Errorf("rate = %g ops/s, want 500", rate)
	}
	if p99 != 50*time.Microsecond {
		t.Errorf("p99 = %v, want 50µs", p99)
	}
}

func TestKindP50WeighsEachKindsMedian(t *testing.T) {
	// Half fast gets at 100-102 us, half slow puts at 900-902 us: the
	// median of all ops would sit on the gap's edge; the kinds' medians
	// weighted half and half give 501 us.
	var s []sample
	for i := 0; i < 3; i++ {
		s = append(s, sample{dur: time.Duration(100+i) * time.Microsecond, kind: 0},
			sample{dur: time.Duration(900+i) * time.Microsecond, kind: 1})
	}
	if got, want := kindP50(s, 2), 501*time.Microsecond; got != want {
		t.Fatalf("kindP50 = %v, want %v", got, want)
	}
	// One kind alone is its own median.
	if got, want := kindP50(s[:1], 2), 100*time.Microsecond; got != want {
		t.Fatalf("kindP50 of one sample = %v, want %v", got, want)
	}
}

func TestHistogramPercentileInterpolates(t *testing.T) {
	b := make([]int64, telemetry.NumBuckets)
	b[1] = 10 // ten observations in (50µs, 100µs]
	if got := histogramPercentile(b, 50); got != 75*time.Microsecond {
		t.Errorf("p50 = %v, want 75µs", got)
	}
	b[len(b)-1] = 90 // the rest overflow
	if got := histogramPercentile(b, 99); got != telemetry.LatencyBuckets[len(telemetry.LatencyBuckets)-1] {
		t.Errorf("p99 in +Inf bucket = %v, want the last bound", got)
	}
}

func TestSelfTimeMergesOverlappingChildren(t *testing.T) {
	ms := time.Millisecond
	spans := []spanRec{
		{trace: 1, id: 1, name: "op", start: 0, end: 10 * ms},
		{trace: 1, id: 2, parent: 1, name: "quorum", start: 1 * ms, end: 9 * ms},
		// A three-way fan-out: two overlapping replies and one that
		// outlives the parent, which is clipped.
		{trace: 1, id: 3, parent: 2, name: "dispatch", start: 2 * ms, end: 5 * ms},
		{trace: 1, id: 4, parent: 2, name: "dispatch", start: 4 * ms, end: 6 * ms},
		{trace: 1, id: 5, parent: 2, name: "dispatch", start: 8 * ms, end: 12 * ms},
		// Same span ID in another trace is not a child.
		{trace: 2, id: 6, parent: 2, name: "dispatch", start: 1 * ms, end: 9 * ms},
	}
	self := selfTimes(spans)
	want := []time.Duration{2 * ms, 3 * ms, 3 * ms, 2 * ms, 4 * ms, 8 * ms}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("self(%s #%d) = %v, want %v", spans[i].name, spans[i].id, self[i], want[i])
		}
	}
	if got := selfP50(spans, self, "quorum"); got != 3*ms {
		t.Errorf("selfP50(quorum) = %v, want 3ms", got)
	}
}

func TestMetricNameRule(t *testing.T) {
	for _, ok := range []string{"setup_s", "wire.call_p50_us", "kv-read", "9lives", "a"} {
		if !validMetricName(ok) {
			t.Errorf("%q rejected", ok)
		}
	}
	for _, bad := range []string{"", "_x", ".x", "-x", "a b", "p99/s", "naïve", "x{1}", string(make([]byte, 65))} {
		if validMetricName(bad) {
			t.Errorf("%q accepted", bad)
		}
	}
	for _, list := range [][]metricSpec{endToEnd, perLayer} {
		for _, m := range list {
			if !validMetricName(m.name) {
				t.Errorf("reported metric %q breaks the name rule", m.name)
			}
		}
	}
}

// BENCHMARK.json lists exactly the metrics the program reports, with
// the same units.
func TestBenchmarkFileMatchesReportedMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	compare := func(kind string, file []struct{ Name, Unit string }, prog []metricSpec) {
		if len(file) != len(prog) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program reports %d", kind, len(file), len(prog))
		}
		for i := range prog {
			if file[i].Name != prog[i].name || file[i].Unit != prog[i].unit {
				t.Errorf("%s #%d: file has %s [%s], program %s [%s]", kind, i, file[i].Name, file[i].Unit, prog[i].name, prog[i].unit)
			}
		}
	}
	compare("end_to_end", spec.EndToEnd, endToEnd)
	compare("per_layer", spec.PerLayer, perLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, the program has %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %q has no set-up", w.Name)
		}
	}
}

func TestVersionLogCatchesStaleQuorumRead(t *testing.T) {
	l := newVersionLog(4)
	if err := l.acked(2, 5); err != nil {
		t.Fatal(err)
	}
	if err := l.quorumRead(2, 5, 5); err != nil {
		t.Fatalf("read of the acknowledged version rejected: %v", err)
	}
	if err := l.quorumRead(2, 7, 7); err != nil {
		t.Fatalf("read of a newer committed version rejected: %v", err)
	}
	// Injected stale read: version 6 after this caller read committed 7.
	if err := l.quorumRead(2, 6, 7); !isWrong(err) {
		t.Fatalf("stale quorum read not caught: %v", err)
	}
	// A write acknowledged at a version this caller already read is a
	// broken version probe.
	if err := l.acked(2, 7); !isWrong(err) {
		t.Fatalf("acknowledged version at or below a seen one not caught: %v", err)
	}
	// Other keys are independent.
	if err := l.quorumRead(3, 1, 1); err != nil {
		t.Fatal(err)
	}
}

func TestVersionLogAllowsUncommittedReadToVanish(t *testing.T) {
	l := newVersionLog(1)
	// A rival's write of version 9 has reached one replica and is not
	// yet acknowledged; version 8 is the committed one.
	if err := l.quorumRead(0, 9, 8); err != nil {
		t.Fatal(err)
	}
	// A later quorum read that misses that replica returns 8: allowed.
	if err := l.quorumRead(0, 8, 8); err != nil {
		t.Fatalf("read of the committed version after an uncommitted one rejected: %v", err)
	}
	// Below the committed version it is still stale.
	if err := l.quorumRead(0, 7, 8); !isWrong(err) {
		t.Fatalf("read below a committed version not caught: %v", err)
	}
	// Once 9 is acknowledged, reading it raises the mark to 9.
	if err := l.quorumRead(0, 9, 9); err != nil {
		t.Fatal(err)
	}
	if err := l.quorumRead(0, 8, 9); !isWrong(err) {
		t.Fatalf("read below an acknowledged version this caller read not caught: %v", err)
	}
}

func TestSweepCheck(t *testing.T) {
	acked := make(ackedVersions, 2)
	acked.raise(0, 4)
	acked.raise(0, 3) // lower acks never lower the high-water mark
	if got := acked[0].Load(); got != 4 {
		t.Fatalf("acked = %d, want 4", got)
	}
	if err := sweepCheck(0, 4, acked[0].Load(), false); err != nil {
		t.Fatal(err)
	}
	if err := sweepCheck(0, 3, acked[0].Load(), true); !isWrong(err) {
		t.Fatalf("lost acknowledged write not caught: %v", err)
	}
	if err := sweepCheck(0, 5, acked[0].Load(), false); !isWrong(err) {
		t.Fatalf("version nobody acknowledged not caught: %v", err)
	}
	if err := sweepCheck(0, 5, acked[0].Load(), true); err != nil {
		t.Fatalf("a failed write may leave a higher version: %v", err)
	}
}

func TestHoldersJudgeResolves(t *testing.T) {
	h := newHolders(2)
	h.assign(0, 3)
	if stale, err := h.resolved(0, 3); stale || err != nil {
		t.Fatalf("current holder: stale=%v err=%v", stale, err)
	}
	h.assign(0, 7)
	if stale, err := h.resolved(0, 3); !stale || err != nil {
		t.Fatalf("superseded holder: stale=%v err=%v, want stale", stale, err)
	}
	if _, err := h.resolved(0, 5); !isWrong(err) {
		t.Fatalf("daemon that never held the name not caught: %v", err)
	}
	if _, err := h.resolved(1, 3); !isWrong(err) {
		t.Fatalf("holder of another name not caught: %v", err)
	}
}
