package main

import "testing"

func TestSelectExperiments(t *testing.T) {
	valid := []string{"all", "fig7", "chunked", "chaos"}
	want, err := selectExperiments("chunked, chaos", valid)
	if err != nil || !want["chunked"] || !want["chaos"] || len(want) != 2 {
		t.Fatalf("selectExperiments(chunked, chaos) = %v, %v", want, err)
	}
	for _, spec := range []string{"all", "fig7"} {
		if _, err := selectExperiments(spec, valid); err != nil {
			t.Fatalf("selectExperiments(%q): %v", spec, err)
		}
	}
	for _, spec := range []string{"nope", "chunked,serve", "progressive", ""} {
		if _, err := selectExperiments(spec, valid); err == nil {
			t.Fatalf("selectExperiments(%q) accepted an unknown name", spec)
		}
	}
}
