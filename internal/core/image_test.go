package core

import (
	"reflect"
	"slices"
	"sync"
	"testing"
)

// TestCloneImageIsolation is the sharing contract: clones of one
// prototype step on the image they share, concurrently (run under -race),
// without writing it, and each run equals a fresh clone's.
func TestCloneImageIsolation(t *testing.T) {
	cfg := DefaultConfig(4)
	proto, units := workloadMachine(t, "Snort", cfg, 2000)
	shared := proto.img
	match, xbar := slices.Clone(shared.match), slices.Clone(shared.xbar)
	want := proto.Clone().Run(units, RunOptions{RecordEvents: true})

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() { // shard workers: clone and run alongside each other
			defer wg.Done()
			for r := 0; r < 3; r++ {
				c := proto.Clone()
				if got := c.Run(units, RunOptions{RecordEvents: true}); !reflect.DeepEqual(got, want) {
					t.Error("a clone's run changed under its siblings")
				}
				if c.img != shared {
					t.Error("a clone left the shared image")
				}
			}
		}()
	}
	wg.Wait()

	if proto.img != shared || !slices.Equal(shared.match, match) || !slices.Equal(shared.xbar, xbar) {
		t.Fatal("the shared image changed under its clones")
	}
}
