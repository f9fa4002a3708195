package sched

import "testing"

func TestPlanShardsPartition(t *testing.T) {
	cases := []struct {
		total, align, overlap, minOwned int64
		workers                         int
	}{
		{total: 1000, workers: 4, align: 1, overlap: 7, minOwned: 16},
		{total: 1000, workers: 4, align: 2, overlap: 7, minOwned: 16},
		{total: 1001, workers: 8, align: 2, overlap: 32, minOwned: 8},
		{total: 7, workers: 8, align: 2, overlap: 4, minOwned: 2},
		{total: 1 << 20, workers: 16, align: 2, overlap: 129, minOwned: 512},
		{total: 100, workers: 3, align: 1, overlap: 200, minOwned: 10},
	}
	for _, c := range cases {
		shards := PlanShards(c.total, c.workers, c.align, c.overlap, c.minOwned)
		if len(shards) == 0 {
			t.Fatalf("PlanShards(%+v): no shards", c)
		}
		if len(shards) > c.workers {
			t.Errorf("PlanShards(%+v): %d shards > %d workers", c, len(shards), c.workers)
		}
		prev := int64(0)
		for i, s := range shards {
			if s.StartCycle != prev {
				t.Errorf("PlanShards(%+v): shard %d starts at %d, want %d (gap or overlap in owned ranges)",
					c, i, s.StartCycle, prev)
			}
			if s.EndCycle <= s.StartCycle {
				t.Errorf("PlanShards(%+v): shard %d empty [%d,%d)", c, i, s.StartCycle, s.EndCycle)
			}
			if s.BaseCycle < 0 || s.BaseCycle > s.StartCycle {
				t.Errorf("PlanShards(%+v): shard %d base %d outside [0,%d]", c, i, s.BaseCycle, s.StartCycle)
			}
			if s.BaseCycle%c.align != 0 || s.StartCycle%c.align != 0 {
				t.Errorf("PlanShards(%+v): shard %d boundaries (%d,%d) not aligned to %d",
					c, i, s.BaseCycle, s.StartCycle, c.align)
			}
			if i < len(shards)-1 && s.EndCycle%c.align != 0 {
				t.Errorf("PlanShards(%+v): shard %d end %d not aligned to %d", c, i, s.EndCycle, c.align)
			}
			// The warm-up must cover the dependence window or reach input start.
			wantOverlap := RoundUp(c.overlap, c.align)
			if got := s.StartCycle - s.BaseCycle; s.BaseCycle > 0 && got < wantOverlap {
				t.Errorf("PlanShards(%+v): shard %d warm-up %d < overlap %d", c, i, got, wantOverlap)
			}
			prev = s.EndCycle
		}
		if prev != c.total {
			t.Errorf("PlanShards(%+v): owned ranges end at %d, want %d", c, prev, c.total)
		}
	}
}

func TestPlanShardsDegenerate(t *testing.T) {
	if s := PlanShards(0, 4, 1, 1, 1); s != nil {
		t.Errorf("PlanShards(0 cycles) = %v, want nil", s)
	}
	if s := PlanShards(100, 0, 1, 1, 1); s != nil {
		t.Errorf("PlanShards(0 workers) = %v, want nil", s)
	}
	// Input smaller than one minimum shard still yields exactly one shard.
	s := PlanShards(10, 8, 2, 4, 512)
	if len(s) != 1 || s[0].StartCycle != 0 || s[0].EndCycle != 10 {
		t.Errorf("PlanShards(tiny input) = %v, want one full shard", s)
	}
}

func TestAlignmentCycles(t *testing.T) {
	cases := []struct {
		rate, symbolUnits int
		want              int64
	}{
		{1, 2, 2}, {2, 2, 1}, {4, 2, 1}, {1, 1, 1}, {4, 1, 1},
	}
	for _, c := range cases {
		if got := Alignment(c.rate, c.symbolUnits); got != c.want {
			t.Errorf("Alignment(%d,%d) = %d, want %d", c.rate, c.symbolUnits, got, c.want)
		}
	}
}
