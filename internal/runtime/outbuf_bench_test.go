package runtime

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"powerlog/internal/agg"
	"powerlog/internal/transport"
)

// outBufKeys is the key space of the combiner benches: 512 distinct
// keys, stride 7, so the key-indexed buffer's position array spans
// 7*512 vertices.
const outBufKeys = 512

// outBufCases are the combiner variants the benches and alloc tests
// cover: the hashed flat combiner (pair-key and elastic fleets) for sum
// and min, and the key-indexed one (Dense key space).
var outBufCases = []struct {
	name string
	new  func() *outBuf
}{
	{"sum", func() *outBuf { return newOutBuf(agg.ByKind(agg.Sum)) }},
	{"min", func() *outBuf { return newOutBuf(agg.ByKind(agg.Min)) }},
	{"dense-sum", func() *outBuf { return newOutBufs(agg.ByKind(agg.Sum), 1, 7*outBufKeys)[0] }},
}

// fillDrain is one fill→drain cycle: every key folded twice, then one
// flush into a pooled batch that is recycled straight away.
func fillDrain(b *testing.B, buf *outBuf) {
	for k := int64(0); k < outBufKeys; k++ {
		buf.add(k*7, float64(k))
		buf.add(k*7, 1.0)
	}
	kvs := buf.take()
	if len(kvs) != outBufKeys {
		b.Fatalf("drained %d keys, want %d", len(kvs), outBufKeys)
	}
	transport.PutBatch(kvs)
}

// BenchmarkOutBuf measures the sender-side combiner's steady-state
// fill→drain cycle: 512 distinct keys each folded twice, then one flush.
// This is the per-update cost every emitted delta pays before the wire.
func BenchmarkOutBuf(b *testing.B) {
	for _, bc := range outBufCases {
		b.Run(bc.name, func(b *testing.B) {
			buf := bc.new()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fillDrain(b, buf)
			}
		})
	}
}

// TestOutBufAllocFree pins every combiner variant's warm fill→drain
// cycle at zero allocations. It drains with drainInto, not take: take's
// batch comes from the transport's sync.Pool, which the race detector
// deliberately empties at random, and the pool's own reuse is pinned by
// the transport tests; the benchmark above covers the take path.
func TestOutBufAllocFree(t *testing.T) {
	for _, bc := range outBufCases {
		buf := bc.new()
		cycle := func() {
			for k := int64(0); k < outBufKeys; k++ {
				buf.add(k*7, float64(k))
				buf.add(k*7, 1.0)
			}
			buf.drainInto(func(int64, float64) {})
		}
		cycle() // grow keys/vals (and the hashed slot table) once
		if allocs := testing.AllocsPerRun(20, cycle); allocs != 0 {
			t.Errorf("%s: fill→drain allocates %v/run, want 0", bc.name, allocs)
		}
	}
}

// TestQuickDenseMatchesHashed: over repeated fill→drain cycles the
// key-indexed combiner returns exactly the hashed combiner's batches —
// same keys, same folded values, same first-touch order — for sum, min
// and max. Two key-indexed buffers share one position array the way a
// scan state's destinations do, with keys split between them by owner.
func TestQuickDenseMatchesHashed(t *testing.T) {
	const n, dests = 300, 2
	for _, kind := range []agg.Kind{agg.Sum, agg.Min, agg.Max} {
		op := agg.ByKind(kind)
		dense := newOutBufs(op, dests, n)
		hashed := []*outBuf{newOutBuf(op), newOutBuf(op)}
		prop := func(seed int64, cycles uint8) bool {
			r := rand.New(rand.NewSource(seed))
			for c := 0; c < int(cycles%6)+1; c++ {
				for i := r.Intn(2000); i > 0; i-- {
					k := int64(r.Intn(n))
					v := float64(r.Intn(1000)) / 8
					dense[k%dests].add(k, v)
					hashed[k%dests].add(k, v)
				}
				for j := range dense {
					var got, want []transport.KV
					if r.Intn(2) == 0 {
						got, want = dense[j].take(), hashed[j].take()
					} else {
						dense[j].drainInto(func(k int64, v float64) { got = append(got, transport.KV{K: k, V: v}) })
						hashed[j].drainInto(func(k int64, v float64) { want = append(want, transport.KV{K: k, V: v}) })
					}
					if !reflect.DeepEqual(got, want) {
						t.Logf("%v cycle %d dest %d: key-indexed %v, hashed %v", kind, c, j, got, want)
						return false
					}
				}
			}
			return true
		}
		if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
			t.Error(err)
		}
	}
}
