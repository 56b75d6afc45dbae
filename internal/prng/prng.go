// Package prng holds the simulator's two seeded generators, each
// defined once: SplitMix, which splits one seed into independent
// streams for the fleet's and the cloud's schedules, and XorShift, the
// single-stream step behind link faults and trace sampling. Every
// stream is a pure function of its seed, so schedules do not depend on
// run mode or worker count.
package prng

// SplitMix is a splitmix64 generator.
type SplitMix struct{ state uint64 }

// NewSplitMix derives an independent stream from a seed and a stream id.
func NewSplitMix(seed, stream uint64) *SplitMix {
	r := &SplitMix{state: seed ^ (stream+1)*0x9e3779b97f4a7c15}
	r.Next() // decorrelate trivially-related seeds
	return r
}

// Next returns the stream's next value.
func (r *SplitMix) Next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Below returns a value in [0, n); 0 when n is 0.
func (r *SplitMix) Below(n uint64) uint64 {
	if n == 0 {
		return 0
	}
	return r.Next() % n
}

// XorShift is an xorshift64 state. Seed it nonzero: zero is a fixed
// point.
type XorShift uint64

// Next advances the state one xorshift64 step and returns it.
func (x *XorShift) Next() uint64 {
	v := uint64(*x)
	v ^= v << 13
	v ^= v >> 7
	v ^= v << 17
	*x = XorShift(v)
	return v
}
