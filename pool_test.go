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
