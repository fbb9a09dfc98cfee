package timerwheel

import (
	"encoding/binary"
	"math/rand"
	"slices"
	"testing"
)

// dueSetSizes are the set sizes FuzzDueSet picks from: one ID, and each
// side of the one-word (64) and one-summary-word (4096) boundaries.
var dueSetSizes = []int{1, 63, 64, 65, 4095, 4096, 4097}

// Fuzz op codes; every other 16-bit little-endian op adds op % n.
const (
	opDrain = 0xFFFF
	opGrow  = 0xFFFE // Grow(2n+1) mid-stream, keeping members
)

// FuzzDueSet is the differential check of DueSet against a sort-and-dedupe
// reference: any sequence of adds, drains and grows must drain exactly the
// distinct IDs added since the last drain, ascending, and leave the set
// empty. The seed corpus in testdata/fuzz/FuzzDueSet adds IDs around every
// word boundary and n-1 for each size, with several drains and a grow.
func FuzzDueSet(f *testing.F) {
	f.Fuzz(func(t *testing.T, size uint8, ops []byte) {
		n := dueSetSizes[int(size)%len(dueSetSizes)]
		s := NewDueSet(n)
		var ref, got []int32
		check := func() {
			slices.Sort(ref)
			want := slices.Compact(ref)
			got = s.Drain(got[:0])
			if !slices.Equal(got, want) {
				t.Fatalf("n=%d: Drain = %v, want %v", n, got, want)
			}
			if again := s.Drain(nil); len(again) != 0 {
				t.Fatalf("n=%d: second Drain = %v, want empty", n, again)
			}
			ref = ref[:0]
		}
		for len(ops) >= 2 {
			op := binary.LittleEndian.Uint16(ops)
			ops = ops[2:]
			switch op {
			case opDrain:
				check()
			case opGrow:
				if n < 1<<16 {
					n = 2*n + 1
					s.Grow(n)
				}
			default:
				id := int32(int(op) % n)
				s.Add(id)
				ref = append(ref, id)
			}
		}
		check()
	})
}

// randomIDs returns k IDs drawn uniformly from [0, n) with a fixed seed.
func randomIDs(k, n int) []int32 {
	r := rand.New(rand.NewSource(1))
	ids := make([]int32, k)
	for i := range ids {
		ids[i] = int32(r.Intn(n))
	}
	return ids
}

// BenchmarkDueSet orders one fired batch the way netsim.Tick does on the
// 10^6-client fleet (about 1,667 due clients per tick): Add each ID, then
// Drain in ascending order.
func BenchmarkDueSet(b *testing.B) {
	ids := randomIDs(1667, 1_000_000)
	s := NewDueSet(1_000_000)
	dst := make([]int32, 0, len(ids))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, id := range ids {
			s.Add(id)
		}
		dst = s.Drain(dst[:0])
	}
}

// BenchmarkDueSetSortBaseline orders the same batch with the comparison
// sort DueSet replaced: append each ID, then slices.Sort.
func BenchmarkDueSetSortBaseline(b *testing.B) {
	ids := randomIDs(1667, 1_000_000)
	dst := make([]int32, 0, len(ids))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = append(dst[:0], ids...)
		slices.Sort(dst)
	}
}
