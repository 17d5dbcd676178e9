package shard

import (
	"log/slog"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"pop/internal/cluster"
)

// TestCheckpointRestoresBothStateFileShapes: the state files popserver and
// the shard worker wrote when each kept its own format — the round under
// "round" (popserver, an LP engine) and under "last_round" (worker, a price
// engine) — restore with their round and jobs, the restored engines solve,
// and a re-saved file restores the same way.
func TestCheckpointRestoresBothStateFileShapes(t *testing.T) {
	log := slog.New(slog.DiscardHandler)
	for _, tc := range []struct {
		file  string
		cfg   EngineConfig
		pool  cluster.Cluster
		round int
	}{
		{"testdata/popserver.state", EngineConfig{Policy: "maxmin", K: 2}, cluster.NewCluster(4, 4, 4), 2},
		{"testdata/worker.state", EngineConfig{Policy: "price"}, testCluster(), 3},
	} {
		t.Run(filepath.Base(tc.file), func(t *testing.T) {
			restore := func(path string) *EngineBundle {
				t.Helper()
				b, err := NewEngine(tc.pool, tc.cfg)
				if err != nil {
					t.Fatal(err)
				}
				var saving atomic.Bool
				round, ok := NewCheckpoint(path, b, log, &saving).Restore()
				if !ok || round != tc.round {
					t.Fatalf("restore %s: round %d ok %v, want round %d", path, round, ok, tc.round)
				}
				if ids := b.Engine.IDs(); !slices.Equal(ids, []int{0, 1, 2, 3}) {
					t.Fatalf("restore %s: ids %v, want [0 1 2 3]", path, ids)
				}
				return b
			}
			b := restore(tc.file)

			resaved := filepath.Join(t.TempDir(), "state")
			var saving atomic.Bool
			var mu sync.Mutex
			if err := NewCheckpoint(resaved, b, log, &saving).Save(&mu, func() int { return tc.round }); err != nil {
				t.Fatal(err)
			}
			restore(resaved)

			cols, err := b.Engine.Solve(tc.pool)
			if err != nil {
				t.Fatal(err)
			}
			if len(cols.IDs) != 4 {
				t.Fatalf("restored engine solved %d jobs, want 4", len(cols.IDs))
			}
		})
	}
}
