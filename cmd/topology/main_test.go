package main

import "testing"

func TestRunTopology(t *testing.T) {
	for _, c := range []struct {
		args    []string
		wantErr bool
	}{
		{[]string{"-seed", "3", "-diverse"}, false},
		{[]string{"-sites", "4", "-wan"}, false},
		{[]string{"-wan"}, true},
		{[]string{"-sites", "2", "-diverse"}, true},
		{[]string{"-nodes", "3", "-diverse"}, true},
	} {
		if err := run(c.args); (err != nil) != c.wantErr {
			t.Errorf("run(%q) = %v, want error: %v", c.args, err, c.wantErr)
		}
	}
}
