package main

import (
	"fmt"
	"math"
	"regexp"
	"sort"
	"sync"
	"time"
)

// Quantile returns the q-quantile (0 ≤ q ≤ 1) of raw samples by the
// nearest-rank rule: the smallest sample with at least q·n samples at or
// below it. Every value it returns is one that was observed — nothing is
// interpolated from histogram buckets. It returns NaN for no samples.
func Quantile(samples []float64, q float64) float64 {
	if len(samples) == 0 || q < 0 || q > 1 || math.IsNaN(q) {
		return math.NaN()
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	rank := int(math.Ceil(q * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// FailureShare is failed ÷ attempted, 0 when nothing was attempted. A count
// outside [0, attempted] is a bookkeeping bug and reported as an error.
func FailureShare(attempted, failed int64) (float64, error) {
	if attempted < 0 || failed < 0 || failed > attempted {
		return 0, fmt.Errorf("failed %d of attempted %d is not a share", failed, attempted)
	}
	if attempted == 0 {
		return 0, nil
	}
	return float64(failed) / float64(attempted), nil
}

var (
	metricNameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	metricUnitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// ValidMetricName reports whether name may be a metric name in
// BENCHMARK.json: a letter or digit, then at most 63 letters, digits, '_',
// '.' or '-'.
func ValidMetricName(name string) bool { return metricNameRE.MatchString(name) }

// ValidMetricUnit reports whether unit may be a metric unit: 1 to 16
// letters, digits, '_', '/', '%', '.' or '-'.
func ValidMetricUnit(unit string) bool { return metricUnitRE.MatchString(unit) }

// Metric is one reported value.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// Samples is the number of raw samples a quantile or mean was taken
	// over; 0 for counts and ratios of totals.
	Samples int `json:"samples,omitempty"`
}

// Metrics is a named set of reported values.
type Metrics map[string]Metric

// Set records a metric. A name or unit that BENCHMARK.json could not carry
// is a bug in the benchmark, so it panics.
func (m Metrics) Set(name, unit string, v float64, samples int) {
	if !ValidMetricName(name) || !ValidMetricUnit(unit) {
		panic(fmt.Sprintf("invalid metric %q [%q]", name, unit))
	}
	m[name] = Metric{Value: v, Unit: unit, Samples: samples}
}

// Recorder collects raw latency samples per operation class together with
// attempted and failed operation counts. It is safe for concurrent use.
type Recorder struct {
	mu        sync.Mutex
	samples   map[string][]float64
	attempted int64
	failed    int64
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder { return &Recorder{samples: map[string][]float64{}} }

// Observe records one attempted operation of class op that started at t0;
// a non-nil err counts it as failed and keeps its latency out of the
// samples.
func (r *Recorder) Observe(op string, t0 time.Time, err error) {
	ms := float64(time.Since(t0).Nanoseconds()) / 1e6
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if err != nil {
		r.failed++
		return
	}
	r.samples[op] = append(r.samples[op], ms)
}

// Sample adds a value to class op without counting an operation.
func (r *Recorder) Sample(op string, v float64) {
	r.mu.Lock()
	r.samples[op] = append(r.samples[op], v)
	r.mu.Unlock()
}

// Count adds attempted and failed operations without a sample.
func (r *Recorder) Count(attempted, failed int64) {
	r.mu.Lock()
	r.attempted += attempted
	r.failed += failed
	r.mu.Unlock()
}

// Samples returns a copy of the raw samples of class op.
func (r *Recorder) Samples(op string) []float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]float64(nil), r.samples[op]...)
}

// Totals returns the attempted and failed operation counts.
func (r *Recorder) Totals() (attempted, failed int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.attempted, r.failed
}
