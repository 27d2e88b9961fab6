package main

import (
	"math"
	"regexp"
	"sort"
	"time"

	"ace/internal/telemetry"
)

// percentile returns the nearest-rank q-th percentile (0 < q < 100) of
// an ascending slice: the smallest value with at least q% of the
// samples at or below it.
func percentile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	idx := rank(q, len(sorted)) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// rank is the 1-based nearest rank of the q-th percentile of n
// samples. The epsilon keeps q/100*n from rounding up past a whole
// number (0.99*1000 is 990.0000000000001 in floating point).
func rank(q float64, n int) int {
	return int(math.Ceil(q/100*float64(n) - 1e-9))
}

// tailQuantiles are the percentiles a timing may be reported at.
var tailQuantiles = []float64{50, 90, 99, 99.9, 99.99, 99.999}

// tailPercentile returns the highest percentile of tailQuantiles that
// still has at least ten of n samples strictly beyond its rank, and
// false when even the median lacks them (n < 20). Reporting a higher
// percentile would rest on fewer than ten observations.
func tailPercentile(n int) (float64, bool) {
	best, ok := 0.0, false
	for _, q := range tailQuantiles {
		if n-rank(q, n) >= 10 {
			best, ok = q, true
		}
	}
	return best, ok
}

func sortDurations(d []time.Duration) {
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// histogramPercentile estimates the q-th percentile of a fixed-bucket
// latency histogram by linear interpolation inside the bucket holding
// the rank (the same estimate Prometheus' histogram_quantile makes).
// The +Inf bucket reports its lower bound.
func histogramPercentile(buckets []int64, q float64) time.Duration {
	var total int64
	for _, b := range buckets {
		total += b
	}
	if total == 0 {
		return 0
	}
	rank := q / 100 * float64(total)
	var cum int64
	for i, b := range buckets {
		if b == 0 || float64(cum+b) < rank {
			cum += b
			continue
		}
		var lo time.Duration
		if i > 0 {
			lo = telemetry.LatencyBuckets[i-1]
		}
		if i >= len(telemetry.LatencyBuckets) {
			return lo
		}
		hi := telemetry.LatencyBuckets[i]
		frac := (rank - float64(cum)) / float64(b)
		return lo + time.Duration(frac*float64(hi-lo))
	}
	return telemetry.LatencyBuckets[len(telemetry.LatencyBuckets)-1]
}

// metricName is the rule every reported metric name follows.
var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// validMetricName reports whether name is a legal metric name: at most
// 64 characters of letters, digits, '_', '.' and '-', starting with a
// letter or digit.
func validMetricName(name string) bool {
	if len(name) == 0 || len(name) > 64 || !metricName.MatchString(name) {
		return false
	}
	c := name[0]
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9'
}
