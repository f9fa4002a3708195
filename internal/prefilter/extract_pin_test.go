package prefilter

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"sunder/internal/workload"
)

// extractDigests pins Extract's verdict on every workload (scale 0.02),
// and the exact and case-folded passes it picks from: the SHA-256 of each
// one's flags, lengths, reason and literals in order. A change to how the
// walk collects positions must leave every literal set byte-identical.
var extractDigests = map[string]string{
	"Brill":            "62a28f9b17dd52506490659f52231cc816391bc6e42b437904763f2d7271b885", // 0 literals, ok=false, fold=false
	"Bro217":           "13287369c3b1842678b4fb7dc9e229ce5a919a107e95f0b98e599bb10cf1a402", // 32 literals, ok=true, fold=false
	"Dotstar03":        "0459f9496ea0ca38492b8033227319c7b10ea9a7f39d279ab48443661a230a6b", // 6 literals, ok=true, fold=false
	"Dotstar06":        "f4fc24bdd7267e9b93385f7b8880797f376e9bc3890d31a87a40771653d45024", // 6 literals, ok=true, fold=false
	"Dotstar09":        "ba12b4a2cf64bbea6ac82d131bc7a9d0171aab8fc9475873d89819e6911eedb8", // 6 literals, ok=true, fold=false
	"ExactMatch":       "f40bd2f923c77d81692ae17562375f70caab973aa72358235d14f56802f5fcb0", // 6 literals, ok=true, fold=false
	"PowerEN":          "55d65df0e55bfb13dcc439ac5f279bfd73d732b7ce5d1b8199a5d983585423a6", // 543 literals, ok=true, fold=false
	"Protomata":        "62a28f9b17dd52506490659f52231cc816391bc6e42b437904763f2d7271b885", // 0 literals, ok=false, fold=false
	"Ranges05":         "62a28f9b17dd52506490659f52231cc816391bc6e42b437904763f2d7271b885", // 0 literals, ok=false, fold=false
	"Ranges1":          "62a28f9b17dd52506490659f52231cc816391bc6e42b437904763f2d7271b885", // 0 literals, ok=false, fold=false
	"Snort":            "62a28f9b17dd52506490659f52231cc816391bc6e42b437904763f2d7271b885", // 0 literals, ok=false, fold=false
	"TCP":              "2a0d6165f450f32a50c7bad573e59be1b93926947d674ba8bf789306d83731c5", // 120 literals, ok=true, fold=false
	"ClamAV":           "f61306bfc362cd1a7bc74aa5cee3ba208102759f0c24b7f9b402f4aa5e2e3700", // 10 literals, ok=true, fold=false
	"Hamming":          "62a28f9b17dd52506490659f52231cc816391bc6e42b437904763f2d7271b885", // 0 literals, ok=false, fold=false
	"Levenshtein":      "62a28f9b17dd52506490659f52231cc816391bc6e42b437904763f2d7271b885", // 0 literals, ok=false, fold=false
	"Fermi":            "da0dd0bac446b68eff4e9c0bea3c505af3299c2ef88bcde8b0acf40e7c6b1a83", // 29 literals, ok=true, fold=false
	"RandomForest":     "62a28f9b17dd52506490659f52231cc816391bc6e42b437904763f2d7271b885", // 0 literals, ok=false, fold=false
	"SPM":              "62a28f9b17dd52506490659f52231cc816391bc6e42b437904763f2d7271b885", // 0 literals, ok=false, fold=false
	"EntityResolution": "dbfd3f49eedf525fd331309cceddab5eeaa3e1ea3dfe32a2652ab69291e84b76", // 238 literals, ok=true, fold=false
}

// extractDigest renders exs for the pin.
func extractDigest(exs ...Extraction) string {
	h := sha256.New()
	for _, ex := range exs {
		fmt.Fprintf(h, "ok=%v fold=%v min=%d max=%d reason=%q\n", ex.OK, ex.FoldCase, ex.MinLen, ex.MaxLen, ex.Reason)
		for _, l := range ex.Literals {
			fmt.Fprintf(h, "%q\n", l)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func TestExtractWorkloadsPinned(t *testing.T) {
	for _, name := range workload.Names() {
		w := workload.MustGet(name, workload.DefaultScale, 1<<10)
		cfg := DefaultConfig().withDefaults()
		ex := Extract(w.Automaton, cfg)
		got := extractDigest(ex, extract(w.Automaton, cfg, false), extract(w.Automaton, cfg, true))
		if want, ok := extractDigests[name]; !ok || got != want {
			t.Errorf("%s: literal-set digest %s, want %s (%d literals, ok=%v, fold=%v)", name, got, want, len(ex.Literals), ex.OK, ex.FoldCase)
		}
	}
	if len(extractDigests) != len(workload.Names()) {
		t.Errorf("%d workloads pinned, want %d", len(extractDigests), len(workload.Names()))
	}
}
