package backoff

import (
	"context"
	"math/rand"
	"testing"
	"time"
)

func TestEnvelopeGrowsAndCaps(t *testing.T) {
	p := Policy{Base: 100 * time.Millisecond, Max: 1 * time.Second}
	want := []time.Duration{
		100 * time.Millisecond,
		200 * time.Millisecond,
		400 * time.Millisecond,
		800 * time.Millisecond,
		1 * time.Second,
		1 * time.Second,
	}
	for i, w := range want {
		if got := p.Envelope(i + 1); got != w {
			t.Errorf("Envelope(%d)=%v, want %v", i+1, got, w)
		}
	}
}

func TestEnvelopeOverflowSafe(t *testing.T) {
	p := Policy{Base: time.Hour, Max: 24 * time.Hour}
	if got := p.Envelope(500); got != 24*time.Hour {
		t.Fatalf("Envelope(500)=%v", got)
	}
}

func TestZeroPolicyUsesDefaults(t *testing.T) {
	var p Policy
	if got := p.Envelope(1); got != DefaultBase {
		t.Fatalf("Envelope(1)=%v, want %v", got, DefaultBase)
	}
	if got := p.Envelope(1000); got != DefaultMax {
		t.Fatalf("Envelope(1000)=%v, want %v", got, DefaultMax)
	}
}

func TestDelayJitterBounds(t *testing.T) {
	p := Policy{Base: 100 * time.Millisecond, Max: 5 * time.Second}
	rng := rand.New(rand.NewSource(42))
	for attempt := 1; attempt <= 8; attempt++ {
		e := p.Envelope(attempt)
		for i := 0; i < 200; i++ {
			d := p.Delay(attempt, rng)
			if d < e/2 || d > e {
				t.Fatalf("attempt %d: delay %v outside [%v, %v]", attempt, d, e/2, e)
			}
		}
	}
}

func TestDelayDeterministicForSeed(t *testing.T) {
	p := Policy{Base: 50 * time.Millisecond, Max: 2 * time.Second}
	a := rand.New(rand.NewSource(7))
	b := rand.New(rand.NewSource(7))
	for attempt := 1; attempt <= 10; attempt++ {
		if da, db := p.Delay(attempt, a), p.Delay(attempt, b); da != db {
			t.Fatalf("attempt %d: same seed gave %v vs %v", attempt, da, db)
		}
	}
}

func TestDelayNilRngIsEnvelope(t *testing.T) {
	p := Policy{Base: time.Second, Max: time.Minute}
	if got := p.Delay(3, nil); got != 4*time.Second {
		t.Fatalf("Delay(3, nil)=%v", got)
	}
}

func TestSleepRespectsContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond) // cancel while Sleep waits on its 10 s timer
		cancel()
	}()
	start := time.Now()
	if err := Sleep(ctx, 10*time.Second); err != context.Canceled {
		t.Fatalf("err=%v", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("Sleep ignored cancellation")
	}
}

func TestSleepZeroReturnsImmediately(t *testing.T) {
	if err := Sleep(context.Background(), 0); err != nil {
		t.Fatal(err)
	}
}
