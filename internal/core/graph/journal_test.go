package graph

import (
	"slices"
	"testing"
)

// TestJournal checks that the capture journal is off until enabled, lists
// each noted index once between drains, empties on Drain, and is fed by
// Forward and ResetVar.
func TestJournal(t *testing.T) {
	var st Store
	a := st.Fresh("a", 1)
	b := st.Fresh("b", 2)
	st.Forward(a, b)
	if st.Journal() != nil {
		t.Fatal("journal on before EnableJournal")
	}
	st.EnableJournal()
	j := st.Journal()
	if got := j.Drain(); len(got) != 0 {
		t.Fatalf("changes before EnableJournal were recorded: %v", got)
	}
	c := st.Fresh("c", 3)
	j.Note(c)
	j.Note(c)
	st.ResetVar(a)
	if got := j.Drain(); !slices.Equal(got, []int{c.ID(), a.ID()}) {
		t.Fatalf("Drain = %v, want [%d %d]", got, c.ID(), a.ID())
	}
	st.Forward(c, b)
	j.Note(c)
	if got := j.Drain(); !slices.Equal(got, []int{c.ID()}) {
		t.Fatalf("Drain after Forward = %v, want [%d]", got, c.ID())
	}
	if got := j.Drain(); len(got) != 0 {
		t.Fatalf("second Drain = %v, want empty", got)
	}
}
