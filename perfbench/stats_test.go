package main

import (
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestQuantileNearestRank(t *testing.T) {
	samples := []float64{15, 20, 35, 40, 50}
	for _, tc := range []struct {
		q    float64
		want float64
	}{
		{0, 15}, {0.05, 15}, {0.2, 15}, {0.21, 20}, {0.3, 20}, {0.4, 20},
		{0.5, 35}, {0.9, 50}, {1, 50},
	} {
		if got := Quantile(samples, tc.q); got != tc.want {
			t.Errorf("Quantile(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
}

func TestQuantileReturnsObservedSamplesOnly(t *testing.T) {
	// Bucket interpolation would answer 1.5 for a median between 1 and 2;
	// an exact quantile must be one of the samples.
	samples := []float64{2, 1}
	if got := Quantile(samples, 0.5); got != 1 {
		t.Fatalf("median = %v, want 1", got)
	}
	if got := Quantile(samples, 0.51); got != 2 {
		t.Fatalf("p51 = %v, want 2", got)
	}
	if samples[0] != 2 {
		t.Fatal("Quantile reordered its input")
	}
}

func TestQuantileEdgeCases(t *testing.T) {
	if !math.IsNaN(Quantile(nil, 0.5)) {
		t.Error("empty input must give NaN")
	}
	if !math.IsNaN(Quantile([]float64{1}, 1.5)) || !math.IsNaN(Quantile([]float64{1}, -0.1)) {
		t.Error("q outside [0,1] must give NaN")
	}
	if got := Quantile([]float64{7}, 0.99); got != 7 {
		t.Errorf("single sample p99 = %v", got)
	}
}

func TestFailureShare(t *testing.T) {
	for _, tc := range []struct {
		attempted, failed int64
		want              float64
		err               bool
	}{
		{0, 0, 0, false},
		{10, 0, 0, false},
		{10, 3, 0.3, false},
		{4, 4, 1, false},
		{3, 4, 0, true},
		{-1, 0, 0, true},
		{5, -1, 0, true},
	} {
		got, err := FailureShare(tc.attempted, tc.failed)
		if (err != nil) != tc.err || got != tc.want {
			t.Errorf("FailureShare(%d,%d) = %v,%v", tc.attempted, tc.failed, got, err)
		}
	}
}

func TestMetricNamesAndUnits(t *testing.T) {
	for _, ok := range []string{"latency_ms", "setup_s", "session.stage_p50_ms.data-context",
		"http.create_p50_ms", "0ratio", "a" + strings.Repeat("b", 63)} {
		if !ValidMetricName(ok) {
			t.Errorf("%q rejected", ok)
		}
	}
	for _, bad := range []string{"", "_x", ".x", "a b", "a/b", "x%", "a" + strings.Repeat("b", 64)} {
		if ValidMetricName(bad) {
			t.Errorf("%q accepted", bad)
		}
	}
	for _, ok := range []string{"ms", "s", "1/s", "count", "%", "MB", "ratio"} {
		if !ValidMetricUnit(ok) {
			t.Errorf("unit %q rejected", ok)
		}
	}
	for _, bad := range []string{"", "m s", "12345678901234567"} {
		if ValidMetricUnit(bad) {
			t.Errorf("unit %q accepted", bad)
		}
	}
}

func TestEveryDeclaredMetricIsValid(t *testing.T) {
	seen := map[string]bool{}
	for _, m := range append(append([]declared(nil), endToEnd...), perLayer()...) {
		if !ValidMetricName(m.Name) || !ValidMetricUnit(m.Unit) {
			t.Errorf("invalid metric %q [%q]", m.Name, m.Unit)
		}
		if seen[m.Name] {
			t.Errorf("metric %q declared twice", m.Name)
		}
		seen[m.Name] = true
	}
}

func TestMetricsSetPanicsOnBadName(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Set accepted an invalid name")
		}
	}()
	Metrics{}.Set("bad name", "ms", 1, 0)
}

func TestRecorderCountsFailuresWithoutSamples(t *testing.T) {
	r := NewRecorder()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				var err error
				if j%10 == 0 {
					err = errors.New("boom")
				}
				r.Observe("op", time.Now(), err)
			}
		}(i)
	}
	wg.Wait()
	r.Count(5, 2)
	attempted, failed := r.Totals()
	if attempted != 805 || failed != 82 {
		t.Fatalf("totals = %d/%d, want 805/82", attempted, failed)
	}
	if n := len(r.Samples("op")); n != 720 {
		t.Fatalf("samples = %d, want 720", n)
	}
}

func TestBenchmarkJSONMatchesDeclaredMetrics(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []declared `json:"end_to_end"`
		PerLayer []declared `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(spec.EndToEnd, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end differs from endToEnd:\n%+v\n%+v", spec.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(spec.PerLayer, perLayer()) {
		t.Errorf("BENCHMARK.json per_layer differs from perLayer():\n%+v\n%+v", spec.PerLayer, perLayer())
	}
}

func TestWorkIsWholeCyclesOfEveryStack(t *testing.T) {
	for name, wl := range workloads {
		for _, seconds := range []int{1, 10, 30, 60} {
			work := wl.work(seconds)
			for _, stack := range stacks {
				c := cycles[stack]
				if n := work[stack]; n < c.ops || n%c.ops != 0 {
					t.Errorf("%s at %d s: %d %s operations, want a positive multiple of %d", name, seconds, n, stack, c.ops)
				}
			}
			if !reflect.DeepEqual(work, wl.work(seconds)) {
				t.Errorf("%s at %d s: work differs between two calls", name, seconds)
			}
		}
	}
}

func TestClientShareSplitsEveryOperation(t *testing.T) {
	for n := 0; n < 20; n++ {
		sum := 0
		for c := 0; c < clients; c++ {
			sum += clientShare(n, c)
		}
		if sum != n {
			t.Errorf("clientShare splits %d operations into %d", n, sum)
		}
	}
}
