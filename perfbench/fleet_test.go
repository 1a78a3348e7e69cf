package main

import (
	"encoding/json"
	"net/http"
	"testing"

	"github.com/activeiter/activeiter/internal/serve"
)

// candAnswer is a net-2 candidates answer listing idx in order; each
// user's score is a function of its index, as it is across shards.
func candAnswer(t *testing.T, idx ...int32) expected {
	t.Helper()
	cs := make([]serve.Candidate, len(idx))
	for k, i := range idx {
		cs[k] = serve.Candidate{Index: i, ID: "u", Score: 1 / float64(i+1)}
	}
	raw, err := json.Marshal(map[string]any{"generation": 0, "net": 2, "k": 3, "candidates": cs})
	if err != nil {
		t.Fatal(err)
	}
	return expected{status: http.StatusOK, body: raw}
}

func TestMoverMissingOrDoubled(t *testing.T) {
	const mover = 7
	want := candAnswer(t, 4, 7, 2)
	cases := []struct {
		name string
		got  expected
		ok   bool
	}{
		{"missing, next moves up", candAnswer(t, 4, 2, 9), true},
		{"missing, list runs short", candAnswer(t, 4, 2), true},
		{"doubled, last drops off", candAnswer(t, 4, 7, 7), true},
		{"other entry missing", candAnswer(t, 7, 2, 9), false},
		{"reordered", candAnswer(t, 2, 4, 9), false},
		{"mover kept, foreign entry", candAnswer(t, 4, 7, 9), false},
		{"missing, two move up", candAnswer(t, 4, 2, 9, 5), false},
		{"status differs", expected{status: http.StatusNotFound, body: candAnswer(t, 4, 2, 9).body}, false},
	}
	for _, c := range cases {
		if got := moverMissingOrDoubled(c.got, want, mover); got != c.ok {
			t.Errorf("%s: got %v, want %v", c.name, got, c.ok)
		}
	}
}
