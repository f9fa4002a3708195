package prefilter

import (
	"fmt"
	"math/rand"
	"testing"
)

// scanHits keeps the benchmarked scans observable.
var scanHits int

// randomBytes draws n uniform bytes.
func randomBytes(rng *rand.Rand, n int) []byte {
	out := make([]byte, n)
	rng.Read(out)
	return out
}

// textLike draws n bytes of lowercase words with a skewed letter frequency,
// separated by spaces: a haystack whose byte pairs repeat, so literals drawn
// from it share blocks with it.
func textLike(rng *rand.Rand, n int) []byte {
	const letters = "etaoinshrdlcumwfgypbvkjxqz"
	out := make([]byte, n)
	for i := range out {
		if rng.Intn(6) == 0 {
			out[i] = ' '
			continue
		}
		out[i] = letters[min(int(rng.ExpFloat64()*5), len(letters)-1)]
	}
	return out
}

// BenchmarkScanners times every strategy on a grid of literal sets over a
// 64 KiB haystack: k literals, the shortest minLen bytes and the rest up to
// 2·minLen, drawn from the haystack's own source (uniform random bytes, or
// text-like words) and minimized as extraction would. It is the evidence
// for NewScannerFold's selection constants.
func BenchmarkScanners(b *testing.B) {
	const n = 64 << 10
	for _, src := range []struct {
		name string
		gen  func(*rand.Rand, int) []byte
	}{{"random", randomBytes}, {"text", textLike}} {
		rng := rand.New(rand.NewSource(1))
		data := src.gen(rng, n)
		for _, k := range []int{1, 2, 4, 8, 32, 512} {
			for _, minLen := range []int{2, 3, 4, 8, 16, 24} {
				lits := make([][]byte, k)
				for i := range lits {
					lits[i] = src.gen(rng, minLen+i%(minLen+1))
				}
				lits = Minimize(lits)
				for _, s := range everyScanner(lits, false) {
					name := fmt.Sprintf("%s/k=%d/minLen=%d/%s", src.name, k, minLen, s.Strategy())
					b.Run(name, func(b *testing.B) {
						b.SetBytes(n)
						for i := 0; i < b.N; i++ {
							s.Scan(data, func(int, int) { scanHits++ })
						}
					})
				}
			}
		}
	}
}
