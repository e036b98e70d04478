package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"runtime"
	"testing"

	"mmbench"
)

// runDigests are the sha256 digests of the analytic JSON reports
// `mmbench run -workload W -precision P -format json | sha256sum` (device
// 2080ti, batch 32, paper scale: run's defaults) of six workloads at three
// precisions. An analytic report is a pure function of its config, so a
// change that moves one changed a modeled number; regenerate a digest only
// when that is the change's intent.
var runDigests = map[string]string{
	"avmnist/f32":    "ecf8ab1a4955dff13a0f7459068570d2f79560a6d6778cd57baeb25681a6dee7",
	"avmnist/f16":    "e92cf7c0ac9a8f66904d6619e8f61f633fe5391f558545a4e7b5865cc52a9d14",
	"avmnist/i8":     "5fa648e84f5b5ecc48359dc6d759521e21789c5b515a8058270c5b6791d896b1",
	"vnt/f32":        "ab401786423e516bb7b52dc746fe292d2ede449f505b5e1948138f4bf06d9058",
	"vnt/f16":        "bb7b2b02b53e1b4a98bcf932a3557d4f3796374d4eb2d547c10040ffc496890e",
	"vnt/i8":         "e73dfd7c94179f98e33937769790cd0b407cc863f17cbb928fb216bc3aea8692",
	"medseg/f32":     "4c2c244a77a252fe02e679beed8e730e2fa546eea8089a653ba4b749815068be",
	"medseg/f16":     "29a79210fa58878ac9e4118171d1093af44155d2fc8e72844cbced045e9da214",
	"medseg/i8":      "1668062749ae6ac99f96ea99aa18ee22387a772f0217992a1a50314c822e2c6c",
	"transfuser/f32": "08c410acc86eb3e82ec26f9cee4bb6936bf9156c7882f9f42fbf748017366ea9",
	"transfuser/f16": "a724c9cdd53254a98fd42a5224c265f19642336eef196aadad904ade86c2e36a",
	"transfuser/i8":  "4836aed16601f6aa3d224af7aac5baefbff69df16d8a8ac7a91b15a011aa3b2c",
	"mosei/f32":      "62758c963ae5c521538c0a08a2b84d2a7ef789dba25c0137d8e2f74d43537d81",
	"mosei/f16":      "27828c93c9c5464f753859967686c423dda857e91f7d0739ef5de6fe360b4d34",
	"mosei/i8":       "b64cb39a905e0587f59f8420bb56617fbb331b2d4fe20daf998ab385f35da9da",
	"medvqa/f32":     "88540f34276aeb715e121d9cc09925c8d1f1c5ecaaedc39b7e6c0db10892353a",
	"medvqa/f16":     "b1215a7ddb6ff39b9ba7403f3aa83089e09151d9de4e29700c09e0b6d9eab814",
	"medvqa/i8":      "f4d54761a354a43cc835de242c41f3edb4ac31dd09ef0e564ea62c5d72172890",
}

// TestRunReportDigests renders each analytic run of runDigests through
// run's own renderer and compares its sha256 with the pinned one. The
// digests are amd64's: elsewhere the compiler may fuse a multiply-add and
// move a last bit of a modeled number.
func TestRunReportDigests(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("the digests are amd64's")
	}
	for _, w := range []string{"avmnist", "vnt", "medseg", "transfuser", "mosei", "medvqa"} {
		for _, p := range []string{"f32", "f16", "i8"} {
			key := w + "/" + p
			rep, err := mmbench.Run(mmbench.RunConfig{Workload: w, Device: "2080ti", BatchSize: 32, PaperScale: true, Precision: p})
			if err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			var buf bytes.Buffer
			if err := renderReport(&buf, rep, "json"); err != nil {
				t.Fatal(err)
			}
			if got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); got != runDigests[key] {
				t.Errorf("%s renders to sha256 %s, pinned %s", key, got, runDigests[key])
			}
		}
	}
}
