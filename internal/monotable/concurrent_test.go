package monotable

import (
	"sync"
	"testing"

	"powerlog/internal/agg"
)

// TestConcurrentFoldScanRange is the -race hammer over the whole dirty
// range: writers FoldDelta into the table while a scanner drains the
// dirty set with ScanDirty and folds into accumulations, with a reader
// polling Acc (session lookups read Acc wait-free while the worker
// folds). For a sum aggregate every folded unit must survive somewhere:
// Σacc + Σinter == total folds at quiescence.
func TestConcurrentFoldScanRange(t *testing.T) {
	const (
		writers = 4
		nkeys   = 2048
	)
	perW := 20000
	if testing.Short() {
		perW = 4000
	}
	for name, tb := range map[string]Table{
		"dense":  NewDense(agg.ByKind(agg.Sum), nkeys, 1, 0),
		"sparse": NewSparse(agg.ByKind(agg.Sum)),
	} {
		t.Run(name, func(t *testing.T) {
			var wg sync.WaitGroup
			done := make(chan struct{})
			for g := 0; g < writers; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; i < perW; i++ {
						k := int64((g*2654435761 + i*7919) % nkeys)
						tb.FoldDelta(k, 1)
					}
				}(g)
			}

			scan := func() {
				tb.ScanDirty(func(k int64) {
					if v, ok := tb.Drain(k); ok {
						tb.FoldAcc(k, v)
					}
				})
			}
			var scanner sync.WaitGroup
			scanner.Add(1)
			go func() {
				defer scanner.Done()
				for {
					select {
					case <-done:
						return
					default:
						scan()
					}
				}
			}()

			// Concurrent reader: Acc must be safe against racing folds
			// and scans.
			var readers sync.WaitGroup
			readers.Add(1)
			go func() {
				defer readers.Done()
				for {
					select {
					case <-done:
						return
					default:
						for k := int64(0); k < nkeys; k += 37 {
							tb.Acc(k)
						}
					}
				}
			}()

			wg.Wait()
			close(done)
			scanner.Wait()
			readers.Wait()

			// Mop up rows dirtied after the scanner's last sweep, then
			// check conservation.
			scan()
			total := 0.0
			tb.RangeRows(func(_ int64, acc, inter float64) bool {
				total += acc + inter
				return true
			})
			if want := float64(writers * perW); total != want {
				t.Fatalf("conservation: Σacc+Σinter = %v, want %v", total, want)
			}
		})
	}
}

// TestDenseScanRangeAllocFree pins the scan hot path: a steady-state
// FoldDelta + ScanDirty cycle over a Dense shard's whole range
// allocates nothing.
func TestDenseScanRangeAllocFree(t *testing.T) {
	d := NewDense(agg.ByKind(agg.Sum), 4096, 1, 0)
	sink := int64(0)
	scanFn := func(k int64) { sink += k }
	body := func() {
		for k := int64(0); k < 4096; k += 5 {
			d.FoldDelta(k, 1)
		}
		d.ScanDirty(scanFn)
	}
	body() // warm
	if allocs := testing.AllocsPerRun(10, body); allocs != 0 {
		t.Fatalf("Dense FoldDelta+ScanDirty cycle allocates %v/run, want 0", allocs)
	}
	if sink == 0 {
		t.Fatal("scan saw no dirty keys")
	}
}
