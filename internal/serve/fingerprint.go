package serve

import (
	"encoding/binary"
	"fmt"
	"hash/maphash"
	"math"
	"math/bits"
	"unsafe"
)

// byteView is a zero-copy view of a's memory as 8·len(a) bytes: the
// fingerprint hashes it, the raw decoder reads bodies into it and the
// result writer sends it.
func byteView(a []float64) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(a))), len(a)*8)
}

// nativeLE reports a little-endian host, where byteView is the wire
// (little-endian float64) encoding as is.
var nativeLE = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// swapBytes reverses the byte order of every element of a in place,
// converting between the wire encoding and a big-endian host's.
func swapBytes(a []float64) {
	for i, v := range a {
		a[i] = math.Float64frombits(bits.ReverseBytes64(math.Float64bits(v)))
	}
}

// fingerprinter computes 128-bit content hashes of float64 matrices. It
// runs two independent maphash passes (distinct seeds fixed at server
// start) over a zero-copy byte view of the data, so fingerprinting a
// multi-megabyte operator costs ~100µs rather than the milliseconds a
// cryptographic hash would charge — a cost paid on the warm path too, where
// it would otherwise eat the cache's entire latency win.
//
// Fingerprints are stable for the lifetime of one Server (the seeds are
// per-process); they identify "the same operator resubmitted to this
// server", not a portable content address.
type fingerprinter struct {
	s1, s2 maphash.Seed
}

func newFingerprinter() fingerprinter {
	return fingerprinter{s1: maphash.MakeSeed(), s2: maphash.MakeSeed()}
}

func (f fingerprinter) of(a []float64) string {
	b := byteView(a)
	var h maphash.Hash
	h.SetSeed(f.s1)
	_, _ = h.Write(b)
	lo := h.Sum64()
	h.Reset()
	h.SetSeed(f.s2)
	_, _ = h.Write(b)
	return fmt.Sprintf("%016x%016x", h.Sum64(), lo)
}
