package monotable

import (
	"math"
	"math/bits"
	"sync/atomic"
)

// Thin wrappers keeping the main file free of bit-twiddling noise.

func loadU64(p *uint64) uint64            { return atomic.LoadUint64(p) }
func casU64(p *uint64, o, n uint64) bool  { return atomic.CompareAndSwapUint64(p, o, n) }
func toBits(f float64) uint64             { return math.Float64bits(f) }
func fromBits(b uint64) float64           { return math.Float64frombits(b) }
func swapWord(p *uint32, v uint32) uint32 { return atomic.SwapUint32(p, v) }
func loadWord(p *uint32) uint32           { return atomic.LoadUint32(p) }
func trailingZeros32(v uint32) int        { return bits.TrailingZeros32(v) }

func markDirty(dirty []uint32, slot int) {
	w, b := slot/32, uint32(1)<<(slot%32)
	for {
		old := atomic.LoadUint32(&dirty[w])
		if old&b != 0 {
			return
		}
		if atomic.CompareAndSwapUint32(&dirty[w], old, old|b) {
			return
		}
	}
}
