package schedule

import (
	"math/rand"
	"testing"

	"tagwatch/internal/epc"
)

func benchTable(b *testing.B, n int) (*IndexTable, []epc.EPC) {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	pop, err := epc.RandomPopulation(rng, n, 96)
	if err != nil {
		b.Fatal(err)
	}
	it, err := NewIndexTable(DefaultConfig(), pop)
	if err != nil {
		b.Fatal(err)
	}
	return it, pop
}

func BenchmarkSelect40Tags2Targets(b *testing.B) {
	it, pop := benchTable(b, 40)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := it.Select(pop[:2]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSelect400Tags20Targets(b *testing.B) {
	it, pop := benchTable(b, 400)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := it.Select(pop[:20]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSelect2000Tags100Targets(b *testing.B) {
	it, pop := benchTable(b, 2000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := it.Select(pop[:100]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNewIndexTable400(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	pop, _ := epc.RandomPopulation(rng, 400, 96)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewIndexTable(DefaultConfig(), pop); err != nil {
			b.Fatal(err)
		}
	}
}
