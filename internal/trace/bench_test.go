package trace

import "testing"

// BenchmarkInterleave merges four 32k-access streams at the frameworks'
// default mean burst of 6 into a destination with room for them, the way a
// barrier does after the trace's first doublings.
func BenchmarkInterleave(b *testing.B) {
	streams := make([][]Access, 4)
	for c := range streams {
		streams[c] = make([]Access, 1<<15)
		for i := range streams[c] {
			streams[c][i] = Access{Addr: uint64(c)<<32 + uint64(i)*8, PC: 0x400000, Gap: 3}
		}
	}
	dst := make([]Access, 0, 4<<15)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		AppendInterleave(dst, streams, 6, int64(i))
	}
}
