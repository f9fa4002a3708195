package core

import (
	"reflect"
	"sync"
	"testing"

	"sunder/internal/nfa"
)

// TestCloneImageIsolation is the sharing contract: clones of one prototype
// step on the configuration they share — the NFA plan — concurrently (run
// under -race, which fails on any write to it), each run equals a fresh
// clone's, and the plan still equals one built afresh.
func TestCloneImageIsolation(t *testing.T) {
	cfg := DefaultConfig(4)
	proto, units := workloadMachine(t, "Snort", cfg, 2000)
	shared := proto.plan
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
				if c.plan != shared {
					t.Error("a clone left the shared plan")
				}
			}
		}()
	}
	wg.Wait()
	if proto.plan != shared || proto.KernelCycles() != 0 || len(proto.ActiveStates(nil)) != 0 {
		t.Fatal("the prototype changed under its clones")
	}
	if !reflect.DeepEqual(shared, nfa.NewPlan(proto.a, shared.Order())) {
		t.Fatal("the shared plan changed under its clones")
	}
}
