// Package raceflag reports, at compile time, whether the race detector is
// enabled. The allocation-pinning tests skip under -race: the detector
// instruments every allocation (and allocates for its own shadow state), so
// testing.AllocsPerRun counts are meaningless there. The pins still run in
// the plain `go test ./...` pass, which CI executes alongside the race pass.
//
// The -race build is also where recycled bytes are poisoned (Poison): the
// race pass runs every golden, so a holder that reads bytes after they went
// back to their owner reads the pattern there and fails loudly.
package raceflag

// PoisonByte is the pattern Poison writes. As a request's operation or a
// response's argument count it decodes to nothing valid.
const PoisonByte = 0xDB

// Poison overwrites b with PoisonByte when the race detector is on and does
// nothing otherwise. Every point that recycles a byte buffer — a freed
// packet's Raw, a client request's encoding, a server session's buffers, a
// cache entry's response, a PM queue read — calls it on the bytes it releases.
func Poison(b []byte) {
	if Enabled {
		for len(b) > 0 {
			b = b[copy(b, pattern[:]):]
		}
	}
}

// pattern is what Poison copies from: a copy is one range access for the
// detector where a byte loop would be one per byte.
var pattern = func() (p [256]byte) {
	for i := range p {
		p[i] = PoisonByte
	}
	return p
}()
