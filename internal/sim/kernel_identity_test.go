package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// sweepGoldenDigest is the SHA-256 of the JSON report of the e1,e5,e6,e7
// sweep below, as the field.Vec kernels produce it with 1 worker and
// with 4. These tables matched the scalar reference implementations of
// poly and rs (the oracles in their test files) byte for byte, and were
// re-recorded when every stream moved to keyed ChaCha8, which changed the
// values the trials draw. Like the core determinism digests, it changes
// only in a change that says why.
const sweepGoldenDigest = "d231fdfb6b1ff22dd6a1f074ef96766a1285613a8ce3fc3ce9888da9bda96f9e"

// TestKernelVsReferenceByteIdentical is the whole-system check for the
// batched field kernels: the experiment suite must reproduce, byte for
// byte, the report the scalar reference implementations produced. Any
// divergence (a different interpolant, a different decode outcome, even
// a different error string) changes a report byte and fails here.
func TestKernelVsReferenceByteIdentical(t *testing.T) {
	ids := []string{"e1", "e5", "e6", "e7"}
	o := Options{Trials: 6, Seed0: 7, MaxSteps: 30_000_000}
	for _, workers := range []int{1, 4} {
		e := NewEngine(workers)
		rep, err := e.Sweep(ids, o)
		e.Close()
		if err != nil {
			t.Fatal(err)
		}
		b, err := rep.JSON()
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(b)
		if got := hex.EncodeToString(sum[:]); got != sweepGoldenDigest {
			t.Fatalf("workers=%d: report digest %s, want %s\n%s", workers, got, sweepGoldenDigest, b)
		}
	}
}
