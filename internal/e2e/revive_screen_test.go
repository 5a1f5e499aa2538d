package e2e

import (
	"path/filepath"
	"testing"

	"dejaview/internal/core"
	"dejaview/internal/vexec"
)

// TestRevivedScreenIsCheckpointScreen records every scenario, notes the
// screen at each checkpoint the script takes, and revives every one of
// those checkpoints twice: live from the session, and from the reopened
// archive. Both revives render the display record at the checkpoint
// time, and both must show exactly the checkpointed screen.
func TestRevivedScreenIsCheckpointScreen(t *testing.T) {
	for _, sc := range append(Scenarios(), multiProcScenario()) {
		t.Run(sc.Name, func(t *testing.T) {
			want := map[uint64]uint64{} // checkpoint counter -> screen hash
			var order []uint64
			s, err := build(sc, core.Config{}, func(s *core.Session, res *vexec.CheckpointResult) {
				want[res.Image.Counter] = s.Display().Screen().Hash()
				order = append(order, res.Image.Counter)
			})
			if err != nil {
				t.Fatalf("build: %v", err)
			}
			if len(order) == 0 {
				t.Fatal("scenario took no checkpoints")
			}
			dir := filepath.Join(t.TempDir(), "archive")
			if err := s.SaveArchive(dir); err != nil {
				t.Fatalf("SaveArchive: %v", err)
			}
			a, err := core.OpenArchive(dir)
			if err != nil {
				t.Fatalf("OpenArchive: %v", err)
			}
			defer a.Close()
			for _, c := range order {
				rv, err := s.ReviveCheckpoint(c)
				if err != nil {
					t.Fatalf("live revive %d: %v", c, err)
				}
				if got := rv.Display.Screen().Hash(); got != want[c] {
					t.Errorf("checkpoint %d: live revived screen %#x, checkpointed %#x", c, got, want[c])
				}
				s.CloseRevived(rv)

				ar, err := a.ReviveCheckpoint(c)
				if err != nil {
					t.Fatalf("archive revive %d: %v", c, err)
				}
				if got := ar.Screen.Hash(); got != want[c] {
					t.Errorf("checkpoint %d: archive revived screen %#x, checkpointed %#x", c, got, want[c])
				}
			}
		})
	}
}
