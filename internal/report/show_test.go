package report

import "testing"

func TestShowAll(t *testing.T) {
	r := NewRunner(defaults)
	for _, e := range []Section{Table1, Table2, Figure3, NullOrSame} {
		out, err := e.Emit(r, NewDocument("test"))
		if err != nil {
			t.Fatal(err)
		}
		t.Log("\n" + out)
	}
}
