package service

import (
	"bytes"
	"encoding/json"
	"testing"

	winofault "repro"
)

// FuzzKey decodes arbitrary bytes the way handleSubmit does and keys the
// result. Key must never panic, and a keyable request must keep its key
// under any value of the scheduling-only Workers and Priority fields and of
// the deprecated, ignored Backend and DeltaExec fields.
func FuzzKey(f *testing.F) {
	for _, seed := range []string{
		`{"bers":[1e-9]}`,
		`{"model":"resnet50","engine":"winograd","precision":"int8","semantics":"operand","bers":[1e-10,1e-9,1e-8],"layers":true}`,
		`{"model":"vgg19","inputSize":16,"samples":8,"rounds":2,"seed":7,"tileF4":true,"bers":[3e-10],"protection":{"conv1_1":[1,0.25]}}`,
		`{"engine":"winograd","bers":[1e-10,1e-9],"scenario":{"kind":"stuckpe","row":0,"col":0,"bit":24}}`,
		`{"bers":[1e-9],"scenario":{"kind":"voltregion","row0":0,"col0":0,"row1":3,"col1":3,"v":0.75}}`,
		`{"bers":[1e-9],"workers":4,"priority":9,"backend":"scalar","deltaExec":false}`,
		`{"bers":[],"samples":-1}`,
	} {
		f.Add([]byte(seed), 0, 0, "", uint8(0))
	}
	f.Add([]byte(`{"bers":[1e-9]}`), 32, 9, "simd-avx512", uint8(1))
	f.Fuzz(func(t *testing.T, body []byte, workers, priority int, backend string, delta uint8) {
		var req winofault.CampaignRequest
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			return
		}
		key, err := Key(req)
		if err != nil {
			return
		}
		alt := req
		alt.Workers, alt.Priority, alt.Backend = workers, priority, backend
		switch delta % 3 {
		case 0:
			alt.DeltaExec = nil
		case 1:
			alt.DeltaExec = new(bool)
		default:
			on := true
			alt.DeltaExec = &on
		}
		altKey, err := Key(alt)
		if err != nil {
			t.Fatalf("scheduling fields made a keyable request fail: %v\n%s", err, body)
		}
		if altKey != key {
			t.Fatalf("workers=%d priority=%d backend=%q deltaExec=%v changed the key\n%s",
				workers, priority, backend, alt.DeltaExec, body)
		}
	})
}
