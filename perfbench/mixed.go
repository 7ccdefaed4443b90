package main

import (
	"bytes"
	"fmt"
	"image"
	"image/color"
	"image/png"
	"math/rand"
	"net/http"
	"strconv"
	"time"

	"dandelion"
	"dandelion/internal/frontend"
	"dandelion/internal/memctx"
	"dandelion/internal/qoiimg"
	"dandelion/internal/ssb"
	"dandelion/internal/wire"
	"dandelion/internal/workloads"
)

// mixed-bulk: one byte-fair node serving an interactive image tenant
// open loop next to a closed loop that alternates ingest-heavy SSB
// batches and egress-heavy storage fetches.
const (
	imageRate     = 200.0 // interactive arrivals/s
	imageSide     = 32
	imagePool     = 32
	ssbBatch      = 4
	ssbChunks     = 4
	ssbChunkBytes = 80 << 10
	ssbVariants   = 8
	fetchBatch    = 2
	fetchBlobs    = 2
	fetchBytes    = 256 << 10
	fetchPool     = 16
	orderLen      = 4096
)

// seededImage renders an opaque imageSide² picture: smooth gradients
// with seeded speckle, the mix of runs and literals QOI sees in photos.
func seededImage(rng *rand.Rand) *image.NRGBA {
	img := image.NewNRGBA(image.Rect(0, 0, imageSide, imageSide))
	r0, g0, b0 := rng.Intn(256), rng.Intn(256), rng.Intn(256)
	for y := 0; y < imageSide; y++ {
		for x := 0; x < imageSide; x++ {
			c := color.NRGBA{R: uint8(r0 + 4*x), G: uint8(g0 + 4*y), B: uint8(b0 + 2*(x+y)), A: 255}
			if rng.Intn(4) == 0 {
				c.R, c.G, c.B = uint8(rng.Intn(256)), uint8(rng.Intn(256)), uint8(rng.Intn(256))
			}
			img.SetNRGBA(x, y, c)
		}
	}
	return img
}

// pngPixels decodes a PNG into NRGBA pixel bytes.
func pngPixels(b []byte) ([]byte, error) {
	img, err := png.Decode(bytes.NewReader(b))
	if err != nil {
		return nil, err
	}
	bounds := img.Bounds()
	out := make([]byte, 0, 4*bounds.Dx()*bounds.Dy())
	for y := bounds.Min.Y; y < bounds.Max.Y; y++ {
		for x := bounds.Min.X; x < bounds.Max.X; x++ {
			c := color.NRGBAModel.Convert(img.At(x, y)).(color.NRGBA)
			out = append(out, c.R, c.G, c.B, c.A)
		}
	}
	return out, nil
}

// ssbVariant is one seeded fact-table prefix and its reference answer.
type ssbVariant struct {
	chunks []memctx.Item
	want   []byte
}

// ssbVariants renders fact prefixes of about ssbChunks×ssbChunkBytes
// whose row counts the seed picks.
func makeSSBVariants(rng *rand.Rand) ([]ssbVariant, error) {
	probe, err := workloads.MakeSSBChunks(4096, 1)
	if err != nil {
		return nil, err
	}
	rows := ssbChunks * ssbChunkBytes * 4096 / len(probe[0].Data)
	out := make([]ssbVariant, ssbVariants)
	for v := range out {
		n := rows - rng.Intn(256)
		chunks, err := workloads.MakeSSBChunks(n, ssbChunks)
		if err != nil {
			return nil, err
		}
		want, err := workloads.SSBExpect(ssb.Q11, n)
		if err != nil {
			return nil, err
		}
		out[v] = ssbVariant{chunks: chunks, want: want.Encode()}
	}
	return out, nil
}

func startMixed(cfg runCfg) (e *env, err error) {
	e = &env{} // the interactive stream is streams[0]
	defer func() {
		if err != nil {
			e.close()
		}
	}()
	rng := rand.New(rand.NewSource(cfg.seed))
	var images [][]byte
	var pixels [][]byte
	for k := 0; k < imagePool; k++ {
		img := seededImage(rng)
		images = append(images, qoiimg.Encode(img))
		pixels = append(pixels, img.Pix)
	}
	imageOrder := make([]int, orderLen)
	order := make([]bool, orderLen) // true: analytics, false: storage
	for k := range order {
		imageOrder[k] = rng.Intn(imagePool)
		order[k] = rng.Intn(2) == 0
	}
	blobNames := make([]string, fetchPool)
	tag := rng.Uint32()
	for k := range blobNames {
		blobNames[k] = fmt.Sprintf("b%08x-%02d", tag, k)
	}
	fetchPick := make([][fetchBlobs]int, orderLen)
	for k := range fetchPick {
		a := rng.Intn(fetchPool)
		fetchPick[k] = [fetchBlobs]int{a, (a + 1 + rng.Intn(fetchPool-1)) % fetchPool}
	}
	variantOrder := make([]int, orderLen)
	for k := range variantOrder {
		variantOrder[k] = rng.Intn(ssbVariants)
	}
	at := func(i int) int { return (i%orderLen + orderLen) % orderLen }

	t0 := time.Now()
	p, err := e.platform(dandelion.Options{ByteFairness: true})
	if err != nil {
		return e, err
	}
	e.nodes = []*dandelion.Platform{p}
	e.all = e.nodes
	streamOf := func(fn string) string {
		if fn == "ImageTranscode" {
			return "interactive"
		}
		return "bulk"
	}
	if _, err := workloads.Register(wrap(p, cfg.rec, nil, streamOf), "all"); err != nil {
		return e, err
	}
	// Inputs that read the node's lazily built SSB tables are made
	// after registration, inside set-up.
	variants, err := makeSSBVariants(rng)
	if err != nil {
		return e, err
	}
	blobs := map[string][]byte{}
	for _, n := range blobNames {
		blobs[n] = workloads.MakeBlob(fetchBytes, workloads.SeedFromName(n))
	}
	var h http.Handler = frontend.NewWithConfig(p, frontend.Config{})
	if cfg.rec != nil {
		h = cfg.rec.handler("frontend", h)
	}
	url, err := e.serve(h)
	if err != nil {
		return e, err
	}

	interactive := &stream{name: "interactive", conns: 1, rate: imageRate,
		send: func(c *http.Client, i int, id uint64, traced bool) outcome {
			k := imageOrder[at(i)]
			out := outcome{invs: 1}
			hdr := map[string]string{frontend.TenantHeader: "interactive"}
			b, err := post(c, url+"/invoke/ImagePipeline?input=Images", "application/octet-stream", hdr, images[k], id, traced)
			out.bytes = int64(len(images[k]) + len(b))
			if err != nil {
				out.failed, out.err = 1, err.Error()
				return out
			}
			got, err := pngPixels(b)
			switch {
			case err != nil:
				out.wrong, out.err = 1, "ImagePipeline output is not a PNG: "+err.Error()
			case !bytes.Equal(got, e.expect(pixels[k])):
				out.wrong, out.err = 1, "ImagePipeline PNG pixels differ from the source QOI"
			default:
				out.ok = 1
			}
			return out
		}}

	analytics := func(c *http.Client, i int, id uint64, traced bool) outcome {
		v := variants[variantOrder[at(i)]]
		reqs := make([]map[string][]memctx.Item, ssbBatch)
		for j := range reqs {
			reqs[j] = map[string][]memctx.Item{"Query": {workloads.MakeSSBQuery(ssb.Q11)}, "Chunks": v.chunks}
		}
		return sendBatch(c, url+"/invoke-batch/SSBQuery", "analytics", reqs, id, traced, func(j int, outs map[string][]memctx.Item) string {
			if !bytes.Equal(first(outs, "Result"), e.expect(v.want)) {
				return "SSBQuery result differs from workloads.SSBExpect"
			}
			return ""
		})
	}
	storage := func(c *http.Client, i int, id uint64, traced bool) outcome {
		reqs := make([]map[string][]memctx.Item, fetchBatch)
		for j := range reqs {
			pick := fetchPick[at(i*fetchBatch+j)]
			var sizes []memctx.Item
			for _, k := range pick {
				sizes = append(sizes, memctx.Item{Name: blobNames[k], Data: []byte(strconv.Itoa(fetchBytes))})
			}
			reqs[j] = map[string][]memctx.Item{"Sizes": sizes}
		}
		return sendBatch(c, url+"/invoke-batch/StorageFetch", "storage", reqs, id, traced, func(j int, outs map[string][]memctx.Item) string {
			got := outs["Blobs"]
			if len(got) != fetchBlobs {
				return fmt.Sprintf("StorageFetch returned %d blobs, want %d", len(got), fetchBlobs)
			}
			for _, it := range got {
				want, ok := blobs[it.Name]
				if !ok || !bytes.Equal(it.Data, e.expect(want)) {
					return "StorageFetch blob differs from workloads.MakeBlob"
				}
			}
			return ""
		})
	}
	bulk := &stream{name: "bulk", conns: 1, batch: true,
		send: func(c *http.Client, i int, id uint64, traced bool) outcome {
			if i == -1 || (i >= 0 && order[at(i)]) {
				return analytics(c, i, id, traced)
			}
			return storage(c, i, id, traced)
		}}
	e.streams = []*stream{interactive, bulk}
	if err := e.firstResponses(); err != nil {
		return e, err
	}
	e.setup = time.Since(t0)
	return e, nil
}

// sendBatch posts one binary-framed batch under tenant and checks every
// slot; check returns a non-empty message for a wrong output.
func sendBatch(c *http.Client, url, tenant string, reqs []map[string][]memctx.Item, id uint64, traced bool,
	check func(j int, outs map[string][]memctx.Item) string) outcome {
	n := len(reqs)
	out := outcome{invs: n}
	var body bytes.Buffer
	out.enc.start = time.Now()
	enc := wire.NewEncoder(&body)
	var err error
	for _, r := range reqs {
		if err = enc.EncodeRequest(r); err != nil {
			break
		}
	}
	if err == nil {
		err = enc.EncodeEnd()
	}
	enc.Release()
	out.enc.end = time.Now()
	if err != nil {
		out.failed, out.err = n, err.Error()
		return out
	}
	var hdr map[string]string
	if tenant != "" {
		hdr = map[string]string{frontend.TenantHeader: tenant}
	}
	raw, err := post(c, url, wire.ContentTypeBinary, hdr, body.Bytes(), id, traced)
	out.bytes = int64(body.Len() + len(raw))
	if err != nil {
		out.failed, out.err = n, err.Error()
		return out
	}
	out.dec.start = time.Now()
	results, done, err := decodeResults(raw, n)
	out.dec.end = time.Now()
	if err != nil {
		out.failed, out.err = n, err.Error()
		return out
	}
	defer done()
	for j, r := range results {
		if r.err != "" {
			out.failed, out.err = out.failed+1, r.err
			continue
		}
		if msg := check(j, r.outputs); msg != "" {
			out.wrong, out.err = out.wrong+1, msg
			continue
		}
		out.ok++
	}
	return out
}
