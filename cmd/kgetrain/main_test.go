package main

import (
	"strings"
	"testing"
)

// TestValidateFlagCombosPartitioned: -partitioned trains through the row
// exchange alone, so every -comm but the default all-reduce is refused up
// front instead of being silently ignored.
func TestValidateFlagCombosPartitioned(t *testing.T) {
	cases := []struct {
		name     string
		explicit []string
		comm     string
		quant    string
		want     string // substring of the error; empty means accepted
	}{
		{"default comm", nil, "allreduce", "none", ""},
		{"allgather comm", []string{"comm"}, "allgather", "none", "-comm allgather"},
		{"dynamic comm", []string{"comm"}, "dynamic", "none", "-comm dynamic"},
		{"dyncomp comm", []string{"comm"}, "dyncomp", "none", "-comm dyncomp"},
		{"quantization", []string{"quant"}, "allreduce", "1bit", "-quant"},
		{"relation partition", []string{"rp"}, "allreduce", "none", "-rp"},
	}
	for _, tc := range cases {
		explicit := map[string]bool{"partitioned": true}
		for _, f := range tc.explicit {
			explicit[f] = true
		}
		err := validateFlagCombos(explicit, "sgd", "", tc.comm, tc.quant, true)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: rejected: %v", tc.name, err)
		case tc.want != "" && err == nil:
			t.Errorf("%s: accepted", tc.name)
		case tc.want != "" && !strings.Contains(err.Error(), tc.want):
			t.Errorf("%s: error %q does not name %s", tc.name, err, tc.want)
		}
	}
}
