// Package rng provides the deterministic pseudo-random primitives used
// across the repository: a splitmix64 stream generator for workload
// synthesis, and a stateless hash-based uniform generator used to
// initialize factor matrices identically on every node of the simulated
// cluster without broadcasting them (any partition can recompute row i of
// factor n from (seed, n, i) alone).
package rng

import "math"

// SplitMix64 is the splitmix64 generator of Steele, Lea and Flood. It is
// tiny, fast, and passes BigCrush; determinism across runs is what the
// experiment harness needs, not cryptographic strength.
type SplitMix64 struct{ state uint64 }

// New returns a generator seeded with seed.
func New(seed uint64) *SplitMix64 { return &SplitMix64{state: seed} }

// Uint64 returns the next value in the stream.
func (s *SplitMix64) Uint64() uint64 {
	s.state += 0x9e3779b97f4a7c15
	return mix(s.state)
}

// Skip advances the stream past n draws in O(1): the state moves by a fixed
// increment per draw, so a generator can start a chunk of a stream exactly
// where a serial loop would be after n draws.
func (s *SplitMix64) Skip(n uint64) { s.state += n * 0x9e3779b97f4a7c15 }

func mix(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform value in [0, 1).
func (s *SplitMix64) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// NormFloat64 returns a standard normal deviate (Box-Muller).
func (s *SplitMix64) NormFloat64() float64 {
	for {
		u := s.Float64()
		if u == 0 {
			continue
		}
		v := s.Float64()
		return math.Sqrt(-2*math.Log(u)) * math.Cos(2*math.Pi*v)
	}
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (s *SplitMix64) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(s.Uint64() % uint64(n))
}

// Hash64 mixes an arbitrary tuple of words into a single well-distributed
// 64-bit value. It is the basis of the stateless generators below.
func Hash64(xs ...uint64) uint64 {
	h := uint64(0x51_7c_c1_b7_27_22_0a_95)
	for _, x := range xs {
		h ^= mix(x + 0x9e3779b97f4a7c15)
		h *= 0xff51afd7ed558ccd
		h ^= h >> 33
	}
	return mix(h)
}

// UniformAt returns a uniform value in [0, 1) that is a pure function of
// the tuple (so every node computes the same value without communication).
func UniformAt(xs ...uint64) float64 {
	return float64(Hash64(xs...)>>11) / (1 << 53)
}

// Pair64 is a composite 128-bit key (e.g. a matricized tensor coordinate
// (row, column)) supported by HashAny.
type Pair64 struct{ A, B uint64 }

// HashAny maps a comparable key of any supported concrete type to a
// well-distributed 64-bit hash. Both distributed engines (rdd, mapreduce)
// partition by this same function, so equal keys land in equal partitions
// everywhere.
func HashAny[K comparable](k K) uint64 {
	switch v := any(k).(type) {
	case Pair64:
		return Hash64(v.A, v.B)
	case uint32:
		return Hash64(uint64(v))
	case uint64:
		return Hash64(v)
	case int:
		return Hash64(uint64(v))
	case int32:
		return Hash64(uint64(uint32(v)))
	case int64:
		return Hash64(uint64(v))
	case uint16:
		return Hash64(uint64(v))
	case uint8:
		return Hash64(uint64(v))
	case string:
		h := uint64(1469598103934665603)
		for i := 0; i < len(v); i++ {
			h ^= uint64(v[i])
			h *= 1099511628211
		}
		return Hash64(h)
	default:
		panic("rng: unhashable key type")
	}
}

// Zipf draws from an approximate Zipf distribution over [0, n) with
// exponent theta in (0, 1), using the inverse-CDF approximation of
// Gray et al. (SIGMOD '94). Real FROSTT tensors have strongly skewed fiber
// occupancy; this reproduces that skew in the synthetic datasets.
type Zipf struct {
	n              int
	theta          float64
	alpha, zetan   float64
	eta, halfPowTh float64
}

// NewZipf constructs a Zipf sampler over [0, n).
func NewZipf(n int, theta float64) *Zipf {
	if n <= 0 {
		panic("rng: Zipf with non-positive n")
	}
	z := &Zipf{n: n, theta: theta}
	z.zetan = zeta(n, theta)
	z.alpha = 1 / (1 - theta)
	z.halfPowTh = math.Pow(0.5, theta)
	z.eta = (1 - math.Pow(2/float64(n), 1-theta)) / (1 - zeta(2, theta)/z.zetan)
	return z
}

func zeta(n int, theta float64) float64 {
	// Exact for small n; integral approximation beyond to keep setup O(1)-ish.
	const exactCap = 10000
	var s float64
	m := n
	if m > exactCap {
		m = exactCap
	}
	for i := 1; i <= m; i++ {
		s += 1 / math.Pow(float64(i), theta)
	}
	if n > exactCap {
		// ∫ x^-theta dx from exactCap to n.
		s += (math.Pow(float64(n), 1-theta) - math.Pow(float64(exactCap), 1-theta)) / (1 - theta)
	}
	return s
}

// Next draws a Zipf value in [0, n) using randomness from src.
func (z *Zipf) Next(src *SplitMix64) int {
	u := src.Float64()
	uz := u * z.zetan
	if uz < 1 {
		return 0
	}
	if uz < 1+z.halfPowTh {
		return 1
	}
	v := int(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
	if v >= z.n {
		v = z.n - 1
	}
	if v < 0 {
		v = 0
	}
	return v
}
