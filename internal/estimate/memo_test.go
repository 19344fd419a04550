package estimate

import (
	"math"
	"reflect"
	"sync"
	"testing"

	"vase/internal/library"
)

// TestEstimateCellMemoized pins the memoization contract: a repeat call with
// equal arguments returns a byte-identical estimate against the uncached
// computation, and the returned OpAmps slice is the caller's own copy.
func TestEstimateCellMemoized(t *testing.T) {
	sys := DefaultSystemSpec()
	for _, cell := range library.Catalog() {
		inst := CellInstance{Cell: cell, Gain: 3, Inputs: 1}
		want, werr := estimateCellUncached(SCN20, sys, inst)
		got, err := EstimateCell(SCN20, sys, inst)
		if (err == nil) != (werr == nil) {
			t.Fatalf("%s: err %v, uncached %v", cell.Name, err, werr)
		}
		again, _ := EstimateCell(SCN20, sys, inst)
		for _, e := range []CellEstimate{got, again} {
			if math.Float64bits(e.AreaUm2) != math.Float64bits(want.AreaUm2) ||
				math.Float64bits(e.Power) != math.Float64bits(want.Power) {
				t.Errorf("%s: cached estimate differs: area %x vs %x, power %x vs %x",
					cell.Name,
					math.Float64bits(e.AreaUm2), math.Float64bits(want.AreaUm2),
					math.Float64bits(e.Power), math.Float64bits(want.Power))
			}
			if !reflect.DeepEqual(e.OpAmps, want.OpAmps) {
				t.Errorf("%s: cached op-amp designs differ", cell.Name)
			}
		}
		if len(got.OpAmps) > 0 {
			// Mutating one caller's slice must not leak into the next.
			got.OpAmps[0].AreaUm2 = -1
			fresh, _ := EstimateCell(SCN20, sys, inst)
			if fresh.OpAmps[0].AreaUm2 == -1 {
				t.Fatalf("%s: caller mutation reached the cache", cell.Name)
			}
		}
	}
}

// TestEstimateCellConcurrent hammers the cache from many goroutines with a
// small working set; under -race this verifies the hit path is safe while
// the set is still being populated.
func TestEstimateCellConcurrent(t *testing.T) {
	sys := DefaultSystemSpec()
	cells := library.Catalog()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				cell := cells[(seed+i)%len(cells)]
				inst := CellInstance{Cell: cell, Gain: float64(1 + i%4), Inputs: 1}
				est, err := EstimateCell(SCN20, sys, inst)
				if err != nil {
					t.Errorf("%s: %v", cell.Name, err)
					return
				}
				if len(est.OpAmps) != cell.OpAmps {
					t.Errorf("%s: %d op amps, want %d", cell.Name, len(est.OpAmps), cell.OpAmps)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestEstimateCellMemoBounded fills the memo past its cap with distinct
// gains from several goroutines at once: it must stop growing at
// cellMemoCap, and every estimate, stored or not, must equal the uncached
// computation bit for bit.
func TestEstimateCellMemoBounded(t *testing.T) {
	sys := DefaultSystemSpec()
	cell := library.Catalog()[0]
	const workers = 4
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < cellMemoCap+100; i += workers {
				inst := CellInstance{Cell: cell, Gain: 1 + float64(i)/1024, Inputs: 1}
				got, err := EstimateCell(SCN20, sys, inst)
				want, werr := estimateCellUncached(SCN20, sys, inst)
				if (err == nil) != (werr == nil) ||
					math.Float64bits(got.AreaUm2) != math.Float64bits(want.AreaUm2) ||
					math.Float64bits(got.Power) != math.Float64bits(want.Power) ||
					!reflect.DeepEqual(got.OpAmps, want.OpAmps) {
					t.Errorf("gain %g: estimate %+v, %v; uncached %+v, %v", inst.Gain, got, err, want, werr)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	stored := 0
	cellMemo.Range(func(any, any) bool { stored++; return true })
	if stored != cellMemoCap || cellMemoLen.Load() != cellMemoCap {
		t.Errorf("memo holds %d entries, counter %d; want the cap %d", stored, cellMemoLen.Load(), cellMemoCap)
	}
}
