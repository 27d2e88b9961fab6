package main

import (
	"time"

	"ace/internal/cmdlang"
)

// metricSpec names one reported metric and its unit.
type metricSpec struct{ name, unit string }

// endToEnd are the figures a user of the system sees, reported by every
// untraced run on every workload. BENCHMARK.json lists the same.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"kind_p50_us", "us"},
	{"op_p99_us", "us"},
	{"cpu_us_per_op", "us"},
	{"mem_mb", "MB"},
}

// perLayer are the figures of single modules, reported by every traced
// run on every workload: 0 where the module does no work on it.
// BENCHMARK.json lists the same.
var perLayer = []metricSpec{
	{"cmdlang.encode_ns", "ns"},
	{"cmdlang.parse_ns", "ns"},
	{"cmdlang.request_bytes", "B"},
	{"wire.frames_per_op", "frames/op"},
	{"wire.bytes_per_op", "B/op"},
	{"wire.call_p50_us", "us"},
	{"wire.timeouts", "count"},
	{"daemon.dispatch_p50_us", "us"},
	{"daemon.client_self_us", "us"},
	{"pool.retries", "count"},
	{"daemon.notify_sent", "count"},
	{"daemon.notify_errors", "count"},
	{"flow.queue_wait_mean_us", "us"},
	{"flow.shed", "count"},
	{"pstore.read_quorum_p50_us", "us"},
	{"pstore.read_full_p50_us", "us"},
	{"pstore.read_stragglers_per_op", "calls/op"},
	{"pstore.read_repairs_per_kop", "repairs/kop"},
	{"pstore.bounded_hit_ratio", "ratio"},
	{"pstore.staleness_violations", "count"},
	{"pstore.write_quorum_p50_us", "us"},
	{"pstore.write_stragglers_per_op", "calls/op"},
	{"storage.appends_per_sync", "ratio"},
	{"storage.syncs_per_put", "ratio"},
	{"storage.wal_bytes_per_user_byte", "ratio"},
	{"storage.snapshots", "count"},
	{"storage.append_p50_us", "us"},
	{"asd.resolve_p50_us", "us"},
	{"asd.cache_hit_ratio", "ratio"},
	{"asd.cache_invalidations", "count"},
	{"asd.stale_resolves", "count"},
	{"asd.store_writes_per_renew", "ratio"},
	{"go.allocs_per_op", "allocs/op"},
	{"go.alloc_bytes_per_op", "B/op"},
	{"go.gc_cycles_per_kop", "cycles/kop"},
	{"trace.overhead_pct", "%"},
	{"trace.spans", "count"},
	{"rmi.call_p50_us", "us"},
	{"rmi.calls_per_s", "1/s"},
	{"rmi.allocs_per_op", "allocs/op"},
	{"call.ace_over_rmi_p50", "ratio"},
	{"failed_ratio", "ratio"},
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// kindCount is the number of completed ops of the named kind.
func kindCount(s *system, p *phaseResult, kind string) float64 {
	for i, k := range s.kinds {
		if k == kind {
			return float64(len(latencies(p.samples, i)))
		}
	}
	return 0
}

// sumHist adds the named histograms bucket by bucket.
func sumHist(h map[string][]int64, names ...string) []int64 {
	var out []int64
	for _, n := range names {
		b := h[n]
		if out == nil && b != nil {
			out = make([]int64, len(b))
		}
		for i, v := range b {
			out[i] += v
		}
	}
	return out
}

func histCount(b []int64) float64 {
	var n int64
	for _, v := range b {
		n += v
	}
	return float64(n)
}

// layerMetrics computes the shared per-layer figures. Counters,
// histograms and Go runtime totals difference over the untraced
// phase, so they describe the program as the end-to-end runs see it;
// span figures come from the traced phase.
func layerMetrics(s *system, untraced, traced *phaseResult, spans []spanRec) map[string]float64 {
	out := map[string]float64{}
	ops := float64(len(untraced.samples))
	c := func(name string) float64 { return float64(untraced.regs[name]) }
	h := untraced.hists
	p50 := func(names ...string) float64 { return us(histogramPercentile(sumHist(h, names...), 50)) }

	out["wire.frames_per_op"] = ratio(c("wire.frames.sent"), ops)
	out["wire.bytes_per_op"] = ratio(c("wire.bytes.sent"), ops)
	out["wire.call_p50_us"] = p50("wire.call.latency")
	out["wire.timeouts"] = c("wire.call.timeouts")

	self := selfTimes(spans)
	var dispatch []time.Duration
	for _, sp := range spans {
		if sp.service != "" {
			dispatch = append(dispatch, sp.end-sp.start)
		}
	}
	sortDurations(dispatch)
	out["daemon.dispatch_p50_us"] = us(percentile(dispatch, 50))
	out["daemon.client_self_us"] = us(selfP50(spans, self, "daemon.Pool.Call"))
	out["pool.retries"] = c("pool.retries")
	out["daemon.notify_sent"] = c("daemon.notify.sent")
	out["daemon.notify_errors"] = c("daemon.notify.errors")

	// Admission waits sit far below the histograms' first 50 µs bucket,
	// so their p50 cannot be resolved; the exact mean can.
	waits := []string{"flow.queue_wait.data", "flow.queue_wait.control"}
	out["flow.queue_wait_mean_us"] = ratio(c(waits[0]+".sum_ns")+c(waits[1]+".sum_ns"), 1000*histCount(sumHist(h, waits...)))
	out["flow.shed"] = c("flow.shed.data") + c("flow.shed.control") + c("flow.conns.shed")

	out["pstore.read_quorum_p50_us"] = p50("pstore.read.latency")
	out["pstore.read_full_p50_us"] = p50("pstore.read.latency_full")
	out["pstore.read_stragglers_per_op"] = ratio(c("pstore.read.stragglers"), histCount(h["pstore.read.latency"]))
	out["pstore.read_repairs_per_kop"] = ratio(1000*c("pstore.read.repairs"), ops)
	out["pstore.bounded_hit_ratio"] = ratio(c("pstore.read.bounded_hits"), c("pstore.read.bounded_hits")+c("pstore.read.bounded_fallbacks"))
	out["pstore.staleness_violations"] = c("pstore.staleness.violations") + float64(traced.regs["pstore.staleness.violations"])
	out["pstore.write_quorum_p50_us"] = p50("pstore.write.latency")
	out["pstore.write_stragglers_per_op"] = ratio(c("pstore.write.stragglers"), histCount(h["pstore.write.latency"]))

	out["storage.appends_per_sync"] = ratio(c("pstore.wal.appends"), c("pstore.wal.syncs"))
	out["storage.syncs_per_put"] = ratio(c("pstore.wal.syncs"), kindCount(s, untraced, "put"))
	out["storage.wal_bytes_per_user_byte"] = ratio(c(benchWALBytes), kindCount(s, untraced, "put")*float64(s.valueSize))
	out["storage.snapshots"] = c("pstore.snapshot.count")

	out["asd.resolve_p50_us"] = us(durP50(spans, "asd.Client.ResolveContext"))
	out["asd.cache_hit_ratio"] = ratio(c("asd.cache.hits"), c("asd.cache.hits")+c("asd.cache.misses"))
	out["asd.cache_invalidations"] = c("asd.cache.invalidations")
	out["asd.stale_resolves"] = c(benchStaleResolves)
	out["asd.store_writes_per_renew"] = ratio(c("asd.replica.store_writes"), kindCount(s, untraced, "renew")+kindCount(s, untraced, "register"))

	out["go.allocs_per_op"] = ratio(float64(untraced.rt.allocs), ops)
	out["go.alloc_bytes_per_op"] = ratio(float64(untraced.rt.allocBytes), ops)
	out["go.gc_cycles_per_kop"] = ratio(1000*float64(untraced.rt.gcCycles), ops)

	out["trace.spans"] = float64(len(spans))
	return out
}

// cmdlangCost times CmdLine.String and cmdlang.Parse over the
// workload's own requests: the median of five rounds of ns per
// request, and the mean encoded size.
func cmdlangCost(reqs []*cmdlang.CmdLine) (encodeNs, parseNs, bytes float64, err error) {
	texts := make([]string, len(reqs))
	var total int
	for i, r := range reqs {
		texts[i] = r.String()
		total += len(texts[i])
	}
	reps := max(1, 20000/len(reqs))
	n := float64(reps * len(reqs))
	var enc, par []float64
	for round := 0; round < 5; round++ {
		t0 := time.Now()
		for i := 0; i < reps; i++ {
			for _, r := range reqs {
				_ = r.String()
			}
		}
		enc = append(enc, float64(time.Since(t0).Nanoseconds())/n)
		t0 = time.Now()
		for i := 0; i < reps; i++ {
			for _, t := range texts {
				if _, err := cmdlang.Parse(t); err != nil {
					return 0, 0, 0, err
				}
			}
		}
		par = append(par, float64(time.Since(t0).Nanoseconds())/n)
	}
	return median(enc), median(par), float64(total) / float64(len(reqs)), nil
}
