package resilience

import (
	"strconv"
	"testing"

	"lsl/internal/metrics"
)

// TestQueuedBytesGaugeSumsGroups drives two groups' samplers over one
// shared lsl_stripe_queued_bytes gauge by hand: the gauge reads the sum
// over live groups, and a group that finishes takes back only its own
// share.
func TestQueuedBytesGaugeSumsGroups(t *testing.T) {
	met := NewMetrics(metrics.NewRegistry())
	a := queuedSampler{gauge: met.QueuedBytes, last: make([]int64, 2)}
	b := queuedSampler{gauge: met.QueuedBytes, last: make([]int64, 3)}
	want := func(step string, vals ...int64) {
		t.Helper()
		for i, v := range vals {
			if got := met.QueuedBytes.With(strconv.Itoa(i)).Value(); got != v {
				t.Errorf("%s: stripe %d gauge %d, want %d", step, i, got, v)
			}
		}
	}
	a.sample([]int64{100, 40})
	b.sample([]int64{7, 8, 9})
	want("both sampled", 107, 48, 9)
	a.sample([]int64{60, 50})
	want("a resampled", 67, 58, 9)
	b.sample([]int64{0, 20, 1})
	want("b resampled", 60, 70, 1)
	a.sample(make([]int64, 2)) // a finishes
	want("a finished", 0, 20, 1)
	b.sample(make([]int64, 3)) // b finishes
	want("b finished", 0, 0, 0)
}
