package sim

import "math"

// Rand is a small, fast, deterministic PRNG (splitmix64 core) used for all
// stochastic model inputs. We avoid math/rand so that the stream is stable
// across Go releases and so each model component can own an independent,
// seedable stream.
type Rand struct {
	state uint64
}

// NewRand returns a generator seeded with seed. Two generators with the same
// seed produce identical streams.
func NewRand(seed uint64) *Rand {
	return &Rand{state: seed*0x9E3779B97F4A7C15 + 0x1234567890ABCDEF}
}

// Uint64 returns the next 64 pseudo-random bits.
func (r *Rand) Uint64() uint64 {
	r.state += 0x9E3779B97F4A7C15
	z := r.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Float64 returns a uniform value in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Exp returns an exponentially distributed value with the given mean.
func (r *Rand) Exp(mean float64) float64 {
	u := r.Float64()
	if u <= 0 {
		u = 1e-12
	}
	return -mean * math.Log(1-u)
}

// Normal returns a normally distributed value (Box–Muller).
func (r *Rand) Normal(mean, stddev float64) float64 {
	u1 := r.Float64()
	if u1 < 1e-12 {
		u1 = 1e-12
	}
	u2 := r.Float64()
	z := math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
	return mean + stddev*z
}

// LogNormal returns exp(Normal(mu, sigma)). Network-stack latencies are
// well modelled as lognormal: a tight body with a long right tail.
func (r *Rand) LogNormal(mu, sigma float64) float64 {
	return math.Exp(r.Normal(mu, sigma))
}

// Fork derives an independent generator from this one; useful for giving each
// simulated component its own stream while keeping a single top-level seed.
func (r *Rand) Fork() *Rand {
	return NewRand(r.Uint64())
}

// Zipf generates values in [0, n) following a Zipfian distribution with
// exponent theta, the standard YCSB request-popularity model.
type Zipf struct {
	r *Rand
	t ZipfTable
}

// ZipfTable is what a Zipf generator derives from (n, theta) alone. zeta(n)
// is an n-term sum of powers, so a run whose clients draw from one keyspace
// builds one table and a generator per client from it. A table is never
// written after NewZipfTable returns.
type ZipfTable struct {
	n     int
	theta float64
	alpha float64
	zetan float64
	eta   float64
}

// NewZipfTable computes the table for [0, n) with exponent theta (YCSB uses
// 0.99). It panics if n <= 0 or theta is not in (0, 1).
func NewZipfTable(n int, theta float64) *ZipfTable {
	if n <= 0 {
		panic("sim: Zipf with non-positive n")
	}
	if theta <= 0 || theta >= 1 {
		panic("sim: Zipf theta must be in (0,1)")
	}
	t := &ZipfTable{n: n, theta: theta, alpha: 1.0 / (1.0 - theta), zetan: zeta(n, theta)}
	t.eta = (1 - math.Pow(2.0/float64(n), 1-theta)) / (1 - zeta(2, theta)/t.zetan)
	return t
}

// New returns a generator over the table drawing from r.
func (t *ZipfTable) New(r *Rand) *Zipf { return &Zipf{r: r, t: *t} }

// NewZipf constructs a Zipfian generator over [0, n) with exponent theta:
// NewZipfTable(n, theta).New(r).
func NewZipf(r *Rand, n int, theta float64) *Zipf { return NewZipfTable(n, theta).New(r) }

func zeta(n int, theta float64) float64 {
	var sum float64
	for i := 1; i <= n; i++ {
		sum += 1.0 / math.Pow(float64(i), theta)
	}
	return sum
}

// Next returns the next sample in [0, n). Rank 0 is the most popular item.
func (z *Zipf) Next() int {
	t := &z.t
	u := z.r.Float64()
	uz := u * t.zetan
	if uz < 1.0 {
		return 0
	}
	if uz < 1.0+math.Pow(0.5, t.theta) {
		return 1
	}
	v := int(float64(t.n) * math.Pow(t.eta*u-t.eta+1, t.alpha))
	if v >= t.n {
		v = t.n - 1
	}
	return v
}
