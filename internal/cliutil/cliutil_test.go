package cliutil

import (
	"reflect"
	"strings"
	"testing"
)

func TestParseMechanisms(t *testing.T) {
	for _, tc := range []struct {
		name    string
		list    string
		want    []string
		wantErr string // substring; empty means no error
	}{
		{name: "empty", list: ""},
		{name: "one", list: "rss+rts:8", want: []string{"rss+rts:8"}},
		{name: "trimmed", list: " baseline , delay:64", want: []string{"baseline", "delay:64"}},
		{name: "kept as written", list: "RSS+RTS:8", want: []string{"RSS+RTS:8"}},
		{name: "unknown keyword", list: "bogus:9", wantErr: "bogus"},
		{name: "bad after good", list: "baseline,fss:0", wantErr: "fss:0"},
		{name: "empty spec", list: "baseline,,delay:64", wantErr: "-mechanisms"},
		{name: "trailing comma", list: "baseline,", wantErr: "-mechanisms"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, err := ParseMechanisms(tc.list)
			switch {
			case tc.wantErr == "" && err != nil:
				t.Fatalf("unexpected error: %v", err)
			case tc.wantErr != "" && err == nil:
				t.Fatalf("no error (got %q), want one mentioning %q", got, tc.wantErr)
			case tc.wantErr != "" && !strings.Contains(err.Error(), tc.wantErr):
				t.Fatalf("error %q does not mention %q", err, tc.wantErr)
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Errorf("specs = %q, want %q", got, tc.want)
			}
		})
	}
}
