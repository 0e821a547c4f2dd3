package workload

// Rand is the workload's random source: math/rand's lagged-Fibonacci
// generator (rng.go), drawn from a block of values computed ahead.
// For every seed, its Float64, Intn, Uint64 and Int63 streams equal
// those of rand.New(rand.NewSource(seed)), so the synthetic programs
// and their walks are the ones math/rand produced. A Rand holds no
// pointers: a value copy is an independent source that continues the
// same stream.
type Rand struct {
	// The next draws are buf[n-1], buf[n-2], …, buf[0], the order in
	// which fill lays them out.
	buf [randBlock]uint64
	n   int
	src rngSource // the state after the last value in buf
}

// randBlock is the number of values computed per refill; fill
// requires at most rngTap.
const randBlock = 256

// NewRand returns a source seeded with seed.
func NewRand(seed int64) *Rand {
	r := new(Rand)
	r.Seed(seed)
	return r
}

// Seed resets r to the start of seed's stream.
func (r *Rand) Seed(seed int64) {
	r.src.Seed(seed)
	r.n = 0
}

// refill moves the undrawn values to the top of the block, as they are
// drawn first, and fills the rest from the generator.
func (r *Rand) refill() {
	k := copy(r.buf[randBlock-r.n:], r.buf[:r.n])
	r.src.fill(r.buf[:randBlock-k])
	r.n = randBlock
}

// Uint64 returns a pseudo-random 64-bit value.
func (r *Rand) Uint64() uint64 {
	if r.n <= 0 {
		r.refill()
	}
	r.n--
	return r.buf[r.n]
}

// Int63 returns a non-negative pseudo-random 63-bit integer.
func (r *Rand) Int63() int64 { return int64(r.Uint64() & rngMask) }

// Float64 returns a pseudo-random number in [0.0, 1.0). Like
// math/rand's, it draws again when a draw rounds up to 1.0.
func (r *Rand) Float64() float64 {
	for {
		if f := float64(int64(r.Uint64()&rngMask)) / (1 << 63); f != 1 {
			return f
		}
	}
}

// Intn returns a pseudo-random number in [0, n). It panics if n <= 0.
// It follows math/rand's Int31n for n < 1<<31 and Int63n above that.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("invalid argument to Intn")
	}
	if n <= int32max {
		n := int32(n)
		if n&(n-1) == 0 {
			return int(r.int31() & (n - 1))
		}
		max := int32(int32max - (1<<31)%uint32(n))
		v := r.int31()
		for v > max {
			v = r.int31()
		}
		return int(v % n)
	}
	m := int64(n)
	if m&(m-1) == 0 {
		return int(r.Int63() & (m - 1))
	}
	max := int64(rngMask - (1<<63)%uint64(m))
	v := r.Int63()
	for v > max {
		v = r.Int63()
	}
	return int(v % m)
}

// float64Below returns the number of 63-bit values v for which
// float64(v)/(1<<63), the number Float64 makes of v, is below p: such
// a draw makes Float64 return less than p iff v < float64Below(p).
// The conversion rounds monotonically, so a binary search finds it.
func float64Below(p float64) uint64 {
	lo, hi := uint64(0), uint64(1)<<63
	for lo < hi {
		mid := lo + (hi-lo)/2
		if float64(int64(mid))/(1<<63) < p {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// float64Retry is the least 63-bit value that Float64 rounds up to
// 1.0 and draws again for.
var float64Retry = float64Below(1)

// int31 is math/rand's Int31: the top 31 bits of Int63.
func (r *Rand) int31() int32 { return int32(r.Uint64() & rngMask >> 32) }

// peek2 returns the next two draws without consuming them; drop
// consumes them.
func (r *Rand) peek2() (uint64, uint64) {
	if r.n < 2 {
		r.refill()
	}
	return r.buf[r.n-1], r.buf[r.n-2]
}

// drop consumes k draws, which peek2 returned.
func (r *Rand) drop(k int) { r.n -= k }
