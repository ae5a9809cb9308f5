package main

import (
	"bytes"
	"testing"
)

func testPlan(t *testing.T, w workload, seed int64) *plan {
	t.Helper()
	p, err := makePlan(w, seed)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// Same seed ⇒ byte-identical request bodies; another seed ⇒ other bytes.
func TestPlanIsAFunctionOfTheSeed(t *testing.T) {
	for _, w := range workloads {
		w = w.scaled(1, 12)
		a, b, c := testPlan(t, w, 7), testPlan(t, w, 7), testPlan(t, w, 8)
		if a.sha256 != b.sha256 {
			t.Errorf("%s: seed 7 hashed to %s, then %s", w.Name, a.sha256, b.sha256)
		}
		if a.sha256 == c.sha256 {
			t.Errorf("%s: seeds 7 and 8 both hash to %s", w.Name, a.sha256)
		}
		for conn := range a.ops {
			if len(a.ops[conn]) != len(b.ops[conn]) {
				t.Fatalf("%s: connection %d sends %d requests, then %d", w.Name, conn, len(a.ops[conn]), len(b.ops[conn]))
			}
			for i := range a.ops[conn] {
				if !bytes.Equal(a.ops[conn][i].body, b.ops[conn][i].body) || a.ops[conn][i].path != b.ops[conn][i].path {
					t.Fatalf("%s: connection %d request %d differs between two plans of one seed", w.Name, conn, i)
				}
			}
		}
	}
}

// Every row of a shard is sent by exactly one connection, exactly once, in
// stream order, and its tuple id is its position in the shard's substream.
func TestShardOwnership(t *testing.T) {
	for _, w := range workloads {
		w = w.scaled(1, 12)
		p := testPlan(t, w, 3)
		owner := map[int]int{}
		sent := make([]int, len(p.st.rows))
		deleted := map[[2]int64]bool{}
		for conn := 0; conn < conns; conn++ {
			last := -1
			next := map[int]int64{}
			for _, o := range append(append([]op(nil), p.preload[conn]...), p.ops[conn]...) {
				if o.method == "DELETE" {
					key := [2]int64{int64(o.shard), o.tuple}
					if deleted[key] {
						t.Errorf("%s: %d:%d is deleted twice", w.Name, o.shard, o.tuple)
					}
					deleted[key] = true
					if c, ok := owner[o.shard]; !ok || c != conn || o.tuple >= next[o.shard] {
						t.Errorf("%s: connection %d deletes %d:%d before it was acked for it", w.Name, conn, o.shard, o.tuple)
					}
					continue
				}
				for _, ri := range o.rows {
					if ri <= last {
						t.Fatalf("%s: connection %d sends row %d after row %d", w.Name, conn, ri, last)
					}
					last = ri
					sent[ri]++
					s := p.st.shardOf[ri]
					if c, ok := owner[s]; ok && c != conn {
						t.Fatalf("%s: shard %d has rows on connections %d and %d", w.Name, s, c, conn)
					}
					owner[s] = conn
					if p.st.tupleID[ri] != next[s] {
						t.Fatalf("%s: row %d is tuple %d of shard %d, want %d", w.Name, ri, p.st.tupleID[ri], s, next[s])
					}
					next[s]++
				}
			}
		}
		for ri, n := range sent {
			if n != 1 {
				t.Fatalf("%s: row %d is sent %d times", w.Name, ri, n)
			}
		}
		if w.DeleteEvery > 0 && len(deleted) == 0 {
			t.Errorf("%s: delete_every %d but the plan deletes nothing", w.Name, w.DeleteEvery)
		}
	}
}

func TestAssignShardsBalances(t *testing.T) {
	owner := assignShards([]int{10, 70, 20, 60})
	load := make([]int, conns)
	for s, c := range owner {
		load[c] += []int{10, 70, 20, 60}[s]
	}
	if load[0] != 80 || load[1] != 80 {
		t.Errorf("loads %v, want [80 80]", load)
	}
}
