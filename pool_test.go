package situfact

import (
	"math/rand"
	"testing"
)

func poolSchema(t *testing.T) *Schema {
	t.Helper()
	s, err := NewSchemaBuilder("feed").
		Dimension("team").Dimension("player").Dimension("month").
		Measure("points", LargerBetter).
		Measure("assists", LargerBetter).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return s
}

var poolTeams = []string{"Celtics", "Lakers", "Bulls", "Heat", "Pacers", "Suns"}

// poolRows builds a deterministic multi-team feed.
func poolRows(n int) []Row {
	rng := rand.New(rand.NewSource(7))
	players := []string{"p1", "p2", "p3", "p4", "p5"}
	months := []string{"Jan", "Feb", "Mar"}
	rows := make([]Row, n)
	for i := range rows {
		rows[i] = Row{
			Dims: []string{
				poolTeams[rng.Intn(len(poolTeams))],
				players[rng.Intn(len(players))],
				months[rng.Intn(len(months))],
			},
			Measures: []float64{float64(rng.Intn(40)), float64(rng.Intn(20))},
		}
	}
	return rows
}

// TestPoolRoutingDeterminism pins the routing function: same key → same
// shard within a pool, across pools, and across runs/processes (FNV-1a is
// specified, so the expected indices are hard-coded).
func TestPoolRoutingDeterminism(t *testing.T) {
	p1, err := NewPool(poolSchema(t), PoolOptions{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer p1.Close()
	p2, err := NewPool(poolSchema(t), PoolOptions{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	for _, v := range poolTeams {
		if p1.ShardFor(v) != p2.ShardFor(v) {
			t.Errorf("%s routes to %d and %d in twin pools", v, p1.ShardFor(v), p2.ShardFor(v))
		}
	}
	// FNV-1a(32) of the team names, mod 3: stable across runs by spec.
	want := map[string]int{"Celtics": 2, "Lakers": 1, "Bulls": 2, "Heat": 2, "Pacers": 1, "Suns": 2}
	for v, s := range want {
		if got := p1.ShardFor(v); got != s {
			t.Errorf("ShardFor(%s) = %d, want %d", v, got, s)
		}
	}
	// Arrivals must carry the routing decision.
	arr, err := p1.Append([]string{"Lakers", "p1", "Jan"}, []float64{10, 5})
	if err != nil {
		t.Fatal(err)
	}
	if arr.Shard != 1 {
		t.Errorf("Lakers arrival on shard %d, want 1", arr.Shard)
	}
}

func TestPoolOptionErrors(t *testing.T) {
	if _, err := NewPool(nil, PoolOptions{}); err == nil {
		t.Error("nil schema accepted")
	}
	if _, err := NewPool(poolSchema(t), PoolOptions{ShardDim: "nope"}); err == nil {
		t.Error("unknown shard dimension accepted")
	}
	if _, err := NewPool(poolSchema(t), PoolOptions{Engine: Options{Algorithm: "nope"}}); err == nil {
		t.Error("unknown engine algorithm accepted")
	}
	p, err := NewPool(poolSchema(t), PoolOptions{}) // defaults: GOMAXPROCS shards, first dim
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if p.Shards() < 1 {
		t.Errorf("default Shards = %d", p.Shards())
	}
	if p.ShardDim() != "team" {
		t.Errorf("default ShardDim = %q, want first dimension", p.ShardDim())
	}
	if _, err := p.Append([]string{"too", "few"}, []float64{1, 2}); err == nil {
		t.Error("bad dimension arity accepted")
	}
	if _, err := p.AppendBatch([]Row{{Dims: []string{"a", "b", "c"}, Measures: []float64{1}}}); err == nil {
		t.Error("bad batch row arity accepted")
	}
}
