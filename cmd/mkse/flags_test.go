package main

import "testing"

func TestParseInts(t *testing.T) {
	got, err := parseInts("1, 5,10")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 1 || got[1] != 5 || got[2] != 10 {
		t.Errorf("parseInts = %v", got)
	}
	for _, bad := range []string{"", "a", "1,,2", "0", "-3", "1,x"} {
		if _, err := parseInts(bad); err == nil {
			t.Errorf("parseInts(%q) accepted", bad)
		}
	}
}

func TestParseLevels(t *testing.T) {
	lv, err := parseLevels("1,5,10")
	if err != nil {
		t.Fatal(err)
	}
	if lv.Eta() != 3 {
		t.Errorf("Eta = %d", lv.Eta())
	}
	if _, err := parseLevels("5,1"); err == nil {
		t.Error("descending levels accepted")
	}
}
