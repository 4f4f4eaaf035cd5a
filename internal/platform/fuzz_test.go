package platform

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"tcrowd/api"
)

// FuzzSubmitV1 drives arbitrary bodies through POST /v1/projects/a/answers,
// the one submit entry point, on a fresh 4-row project per input. Whatever
// the body, the server must not answer 5xx, a rejected submission must
// record nothing, and an accepted one must record exactly what it reports.
func FuzzSubmitV1(f *testing.F) {
	for _, body := range []string{
		`{"worker":"w1","row":0,"column":"category","label":"book"}`,
		`{"answers":[{"worker":"w1","row":0,"column":"category","label":"book"},{"worker":"w1","row":1,"column":"price","number":12.5}]}`,
		`{"worker":"w1","row":0,"column":"category","label":"book","answers":[{"worker":"w2","row":0,"column":"price","number":1}]}`,
		`{"answers":[]}`,
		`{"worker":"w1","row":0,"column":"zzz","number":1}`,
		`{"worker":"w1","row":4,"column":"price","number":1}`,
		`{"worker":"w1","row":0,"column":"price","number":1,"work_time_ms":-5}`,
		`{"answers":[{"worker":"w1","row":2,"column":"price","number":3},{"worker":"w1","row":2,"column":"price","number":3}]}`,
	} {
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, body string) {
		p := NewWithOptions(1, Options{Workers: 1})
		defer p.Close()
		proj, err := p.CreateProject("a", demoSchema(), ProjectConfig{Rows: 4})
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		NewServer(p).ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/projects/a/answers", strings.NewReader(body)))
		if rec.Code >= 500 {
			t.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
		got := proj.Log.Len()
		if rec.Code != http.StatusCreated {
			if got != 0 {
				t.Fatalf("status %d recorded %d answers", rec.Code, got)
			}
			return
		}
		var resp api.SubmitAnswersResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("201 body %q: %v", rec.Body, err)
		}
		if resp.Recorded <= 0 || got != resp.Recorded {
			t.Fatalf("201 reports %d recorded, log grew by %d", resp.Recorded, got)
		}
	})
}
