package fabric

// Gray failures: a link that is up but lossy. Clean failures (KillLink,
// KillSwitch) drop every packet and are eventually noticed by liveness or
// the permanent-failure threshold; a gray link drops a fraction and lets
// the rest through, which is the datacenter failure class protocols
// misdiagnose most often. SetLinkLoss models it at the fabric layer on
// both engines: each packet crossing the link consults a per-link
// deterministic counter stream (SplitMix64 over an advancing counter), so
// a given (seed, link) pair produces the same drop schedule on every run —
// and, in sharded mode, on every shard replica independent of worker
// count (each shard samples only the packets it carries, in its own
// kernel's deterministic order).
//
// The stream is stateful rather than a per-packet hash on purpose: a
// stateless hash of the packet identity would doom specific retransmitted
// frames to be dropped forever (every retry hashes the same), turning a
// probabilistic fault into a deterministic black hole for some sequence
// numbers. With a counter stream each crossing is a fresh draw, which is
// what "X% loss" means physically.

// grayLink is the loss state of one lossy link.
type grayLink struct {
	threshold uint64 // drop when a draw's top 32 bits fall below this
	state     uint64 // SplitMix64 counter
}

// newGrayLink derives the link's private stream from (seed, link).
func newGrayLink(rate float64, seed int64, link int) *grayLink {
	if rate < 0 {
		rate = 0
	}
	if rate > 1 {
		rate = 1
	}
	return &grayLink{
		threshold: uint64(rate * float64(1<<32)),
		state:     mix64(uint64(seed) ^ (uint64(link)+1)*0x9e3779b97f4a7c15),
	}
}

// drop advances the stream one draw and reports whether this crossing is
// dropped.
func (g *grayLink) drop() bool {
	g.state += 0x9e3779b97f4a7c15
	return mix64(g.state)>>32 < g.threshold
}

// mix64 is the SplitMix64 finalizer.
func mix64(z uint64) uint64 {
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}
