// Package detrange is the golden corpus for the detrange analyzer's
// map-iteration rules (the wall-clock and math/rand rules are
// exercised by the sibling "engine" corpus, since they only apply in
// the deterministic core packages).
package detrange

import (
	"sort"

	"analysis"
	"ckpt"
)

// True positive: encoding directly inside a map range writes fields
// in random order.
func encodeMap(e *ckpt.Enc, m map[uint64]uint32) {
	for k, v := range m {
		e.Uvarint(k) // want `map iteration order is random`
		e.U32(v)     // want `map iteration order is random`
	}
}

// True positive: report emission inside a map range makes sample
// selection nondeterministic.
func reportMap(acc *analysis.Accumulator, m map[uint64]uint64) {
	for x, prior := range m {
		acc.Report(1, x, prior, 0) // want `depend on map iteration order`
	}
}

// True positive: accumulating into an outer slice with no later sort.
func collectNoSort(m map[uint64]uint32) []uint64 {
	var keys []uint64
	for k := range m {
		keys = append(keys, k) // want `without a later sort`
	}
	return keys
}

// Near-miss: the blessed collect-sort-emit pattern keeps every sink
// outside the map-ordered region.
func encodeSorted(e *ckpt.Enc, m map[uint64]uint32) {
	var keys []uint64
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	e.Uvarint(uint64(len(keys)))
	for _, k := range keys {
		e.Uvarint(k)
		e.U32(m[k])
	}
}

// True positive: visiting map entries through a codec writes them in
// random order on save.
func codecMap(c *ckpt.Codec, m map[uint64]uint32) {
	for k, v := range m {
		c.Uvarint(&k) // want `map iteration order is random`
		x := int32(v)
		c.Int32(&x) // want `map iteration order is random`
	}
}

// True positive: a helper that takes the codec writes just the same.
func codecHelper(c *ckpt.Codec, m map[uint64]bool) {
	for k := range m {
		visitKey(c, k) // want `map iteration order is random`
	}
}

func visitKey(c *ckpt.Codec, k uint64) { c.Uvarint(&k) }

// Near-miss: the codec visits keys collected and sorted first.
func codecSorted(c *ckpt.Codec, m map[uint64]uint32) {
	keys := make([]uint64, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	n := len(keys)
	c.Len(&n, 1)
	for _, k := range keys {
		x := int32(m[k])
		c.Uvarint(&k)
		c.Int32(&x)
	}
}

// Near-miss: scratch declared inside the loop body is per-iteration
// state, not order-dependent accumulation.
func perKeyScratch(m map[uint64][]uint32) int {
	total := 0
	for _, vs := range m {
		tmp := make([]uint32, 0, len(vs))
		tmp = append(tmp, vs...)
		total += len(tmp)
	}
	return total
}
