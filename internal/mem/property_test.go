package mem

import (
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/cheriot-go/cheriot/internal/cap"
)

// TestPropRevocationMonotone: after revoking a range and sweeping, no
// capability whose base is in the range remains loadable by non-allocator
// authorities, regardless of where it was stored.
func TestPropRevocationMonotone(t *testing.T) {
	const size = 0x1000
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := New(size)
		root := cap.Root(0, size)
		user := root.WithoutPermsMust(cap.PermUser0)
		// Scatter capabilities with random bases.
		type stored struct {
			slot uint32
			base uint32
		}
		var all []stored
		for i := 0; i < 40; i++ {
			slot := (rng.Uint32() % (size - 8)) &^ 7
			base := (rng.Uint32() % (size - 64)) &^ 7
			c := cap.New(base, base+64, base, cap.PermData)
			if err := m.StoreCap(root.WithAddress(slot), c); err != nil {
				return false
			}
			all = append(all, stored{slot: slot, base: base})
		}
		// Revoke a random range and sweep everything.
		revBase := (rng.Uint32() % (size - 256)) &^ 7
		revLen := uint32(64+rng.Intn(192)) &^ 7
		m.Revoke(revBase, revLen)
		m.SweepGranules(0, m.Granules())
		for _, s := range all {
			got, err := m.LoadCap(user.WithAddress(s.slot))
			if err != nil {
				return false
			}
			inRange := s.base >= revBase && s.base < revBase+revLen
			// A slot may have been overwritten by a later capability with
			// a different base; only check slots whose stored base still
			// matches.
			if got.Valid() && got.Base() == s.base && inRange {
				return false // revoked base survived
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
