package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSplitMix64Deterministic(t *testing.T) {
	a, b := New(123), New(123)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed must produce the same stream")
		}
	}
	c := New(124)
	same := 0
	a = New(123)
	for i := 0; i < 100; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds produced %d collisions in 100 draws", same)
	}
}

func TestSkipEqualsDraws(t *testing.T) {
	f := func(seed uint64, n uint16) bool {
		a, b := New(seed), New(seed)
		for i := 0; i < int(n); i++ {
			a.Uint64()
		}
		b.Skip(uint64(n))
		return a.Uint64() == b.Uint64() && a.Uint64() == b.Uint64()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
	// Skip composes, and skipping zero draws is the identity.
	a, b := New(9), New(9)
	a.Skip(0)
	a.Skip(1 << 40)
	a.Skip(3)
	b.Skip(1<<40 + 3)
	if a.Uint64() != b.Uint64() {
		t.Fatal("Skip(x) then Skip(y) differs from Skip(x+y)")
	}
}

func TestFloat64Range(t *testing.T) {
	s := New(7)
	var sum float64
	const n = 10000
	for i := 0; i < n; i++ {
		v := s.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
		sum += v
	}
	if mean := sum / n; math.Abs(mean-0.5) > 0.02 {
		t.Fatalf("mean %v far from 0.5", mean)
	}
}

func TestNormFloat64Moments(t *testing.T) {
	s := New(11)
	var sum, sumsq float64
	const n = 20000
	for i := 0; i < n; i++ {
		v := s.NormFloat64()
		sum += v
		sumsq += v * v
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if math.Abs(mean) > 0.05 || math.Abs(variance-1) > 0.1 {
		t.Fatalf("mean %v variance %v", mean, variance)
	}
}

func TestIntnBoundsAndPanic(t *testing.T) {
	s := New(3)
	for i := 0; i < 1000; i++ {
		if v := s.Intn(7); v < 0 || v >= 7 {
			t.Fatalf("Intn out of range: %d", v)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) must panic")
		}
	}()
	s.Intn(0)
}

func TestHash64AvalancheAndStability(t *testing.T) {
	if Hash64(1, 2, 3) != Hash64(1, 2, 3) {
		t.Fatal("Hash64 must be pure")
	}
	if Hash64(1, 2, 3) == Hash64(1, 2, 4) || Hash64(1, 2) == Hash64(2, 1) {
		t.Fatal("Hash64 must distinguish tuples")
	}
	f := func(a, b uint64) bool {
		if a == b {
			return true
		}
		// Flipping input must flip a healthy number of output bits.
		x, y := Hash64(a), Hash64(b)
		diff := 0
		for v := x ^ y; v != 0; v &= v - 1 {
			diff++
		}
		return diff >= 8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestUniformAtRange(t *testing.T) {
	for i := uint64(0); i < 1000; i++ {
		v := UniformAt(42, i)
		if v < 0 || v >= 1 {
			t.Fatalf("UniformAt out of range: %v", v)
		}
	}
}

func TestZipfSkewAndBounds(t *testing.T) {
	const n = 100000
	z := NewZipf(n, 0.99)
	src := New(5)
	counts := map[int]int{}
	for i := 0; i < 20000; i++ {
		v := z.Next(src)
		if v < 0 || v >= n {
			t.Fatalf("Zipf out of range: %d", v)
		}
		counts[v]++
	}
	// Rank-0 must dominate: far more hits than the uniform expectation (0.2).
	if counts[0] < 500 {
		t.Fatalf("rank-0 count %d, expected heavy skew", counts[0])
	}
	if counts[0] <= counts[1] {
		t.Fatalf("rank-0 (%d) should beat rank-1 (%d)", counts[0], counts[1])
	}
}

func TestZipfLargeDomain(t *testing.T) {
	// Exercises the integral tail approximation of zeta (n > 10000).
	z := NewZipf(5_000_000, 0.8)
	src := New(9)
	for i := 0; i < 1000; i++ {
		if v := z.Next(src); v < 0 || v >= 5_000_000 {
			t.Fatalf("out of range: %d", v)
		}
	}
}

func TestZipfPanicsOnBadN(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewZipf(0) must panic")
		}
	}()
	NewZipf(0, 0.5)
}
