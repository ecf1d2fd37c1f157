package policy

import (
	"math"
	"testing"

	"multihopbandit/internal/rng"
)

// zhouLiBonusAlwaysLog is zhouLiBonusPow without its early-out: the
// logarithm of every argument, zeroed when it is not positive. It is the
// oracle TestZhouLiBonusEarlyOutExact holds the early-out to.
func zhouLiBonusAlwaysLog(t23, k, m float64) float64 {
	logTerm := math.Log(t23 / (k * m))
	if logTerm <= 0 {
		return 0
	}
	return math.Sqrt(logTerm / m)
}

// TestZhouLiBonusEarlyOutExact requires zhouLiBonusPow, which returns 0
// without a logarithm once t^{2/3}/(K·m) ≤ 1, to return the oracle's bits
// on a grid that crosses t^{2/3} = K·m from both sides:
//   - every perfect cube t = c³ for c up to 1,000, with K·m = c² (the exact
//     quotient is 1) and with m one play or one ulp to either side;
//   - integer rounds up to 10^6 with the arm counts ZhouLi passes around
//     m = t^{2/3}/K, and the fractional rounds and play counts that
//     DiscountedZhouLi passes, decayed at three discount factors.
func TestZhouLiBonusEarlyOutExact(t *testing.T) {
	checked, skipped := 0, 0
	check := func(t23, k, m float64) {
		t.Helper()
		if !(m > 0) {
			return
		}
		got, want := zhouLiBonusPow(t23, k, m), zhouLiBonusAlwaysLog(t23, k, m)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("t^{2/3}=%v K=%v m=%v: %v (%#x), oracle %v (%#x)",
				t23, k, m, got, math.Float64bits(got), want, math.Float64bits(want))
		}
		checked++
		if t23/(k*m) <= 1 {
			skipped++
		}
	}
	around := func(t23, k, m float64) {
		for _, x := range []float64{m - 1, m, m + 1} {
			check(t23, k, x)
			check(t23, k, math.Nextafter(x, 0))
			check(t23, k, math.Nextafter(x, math.Inf(1)))
		}
	}

	for c := 1; c <= 1000; c++ {
		c2 := c * c
		t23 := math.Pow(float64(c2*c), 2.0/3.0)
		for _, k := range []int{1, 2, 3, 4, 5, 10, 20, 48, 100, 500, c, c2} {
			if c2%k == 0 {
				around(t23, float64(k), float64(c2/k))
			}
		}
	}

	for round := 1; round <= 1_000_000; round = round*11/10 + 1 {
		t23 := math.Pow(float64(round), 2.0/3.0)
		for _, k := range []float64{1, 2, 6, 20, 48, 500} {
			check(t23, k, 1)
			around(t23, k, math.Floor(t23/k))
		}
	}

	for _, gamma := range []float64{0.9, 0.99, 0.999} {
		p, err := NewDiscountedZhouLi(2, gamma)
		if err != nil {
			t.Fatal(err)
		}
		for round := 1; round <= 5000; round++ {
			// Arm 0 plays every round, arm 1 every seventh: their
			// discounted counts sit above and below the crossover.
			played := []int{0}
			if round%7 == 0 {
				played = append(played, 1)
			}
			if err := p.Update(played, make([]float64, len(played))); err != nil {
				t.Fatal(err)
			}
			t23 := math.Pow(p.effectiveRound(), 2.0/3.0)
			for _, k := range []float64{1, 2, 20} {
				check(t23, k, p.eff[0])
				check(t23, k, p.eff[1])
			}
		}
	}

	if skipped == 0 || skipped == checked {
		t.Fatalf("%d of %d grid points take the early-out; the grid must cross it", skipped, checked)
	}
}

// TestLogNonPositiveAtMostOne checks what the early-out rests on, that
// math.Log returns no positive value for an argument ≤ 1: at 1 and the
// 2^20 - 1 floats just below it, and at 10^6 seeded uniform draws in (0, 1).
func TestLogNonPositiveAtMostOne(t *testing.T) {
	one := math.Float64bits(1)
	for i := uint64(0); i < 1<<20; i++ {
		if x := math.Float64frombits(one - i); math.Log(x) > 0 {
			t.Fatalf("Log(%v) = %v > 0", x, math.Log(x))
		}
	}
	src := rng.New(31)
	for i := 0; i < 1_000_000; i++ {
		x := src.Float64()
		if x == 0 {
			continue
		}
		if math.Log(x) > 0 {
			t.Fatalf("Log(%v) = %v > 0", x, math.Log(x))
		}
	}
}
