package workload

// fab derives a benchmark's fabric from its unit size.
func (g *gctx) fab(locks int, depth int) fabric {
	u := g.unit * g.scale
	return fabric{
		globals:  6 * u,
		ptrs:     6 * u,
		structs:  2 * u,
		kernels:  3 * u,
		localFns: 2 * u,
		locks:    locks,
		depth:    depth,
		filler:   6,
	}
}

// emitPost writes a sequential master phase (after all joins): calls to
// the master-only post-processing functions plus inline strong updates.
// The interleaving analysis proves none of it can run in parallel with the
// slaves.
func (g *gctx) emitPost(f fabric, n int) {
	for i := 0; i < g.nPost; i++ {
		g.p("\tpostproc%d();\n", i)
	}
	for i := 0; i < n; i++ {
		a := g.rnd(f.ptrs)
		g.p("\tp%d = &g%d;\n", a, g.rnd(f.globals))
		g.p("\t*p%d = &g%d;\n", a, g.rnd(f.globals))
		g.p("\tshared_out = *(&p%d);\n", g.rnd(f.ptrs))
	}
}

// emitPoolMain writes the canonical master-slave main: a fork loop, an
// optional mid-section, a join loop, and a post phase.
func (g *gctx) emitPoolMain(f fabric, worker string, nThreads int, post int) {
	g.p("int main() {\n")
	g.p("\tthread_t tids[%d];\n", nThreads)
	g.p("\tint i;\n")
	g.p("\tp0 = &g0;\n")
	g.p("\t*p0 = &g1;\n")
	g.p("\tfor (i = 0; i < %d; i++) {\n", nThreads)
	g.p("\t\ttids[i] = spawn(%s, NULL);\n", worker)
	g.p("\t}\n")
	g.p("\tfor (i = 0; i < %d; i++) {\n", nThreads)
	g.p("\t\tjoin(tids[i]);\n")
	g.p("\t}\n")
	g.emitPost(f, post)
	g.p("\treturn 0;\n")
	g.p("}\n")
}

// ---- word_count ----

func genWordCount(g *gctx) {
	f := g.fab(2, 2)
	g.emitDecls(f)
	g.emitKernels(f)
	g.emitLocalFns(f)
	g.emitPostFuncs(f, g.unit*g.scale+2)
	g.p("void wordcount_map(void *arg) {\n")
	g.emitWorkerBody(f, 3, 2, 2)
	g.p("\tlock(&lk0);\n")
	g.p("\tresults[0] = 1;\n")
	g.p("\tunlock(&lk0);\n")
	g.p("}\n")
	g.emitPoolMain(f, "wordcount_map", 8, 4)
}

// ---- kmeans ----

func genKmeans(g *gctx) {
	f := g.fab(2, 2)
	g.emitDecls(f)
	g.emitKernels(f)
	g.emitLocalFns(f)
	g.emitPostFuncs(f, g.unit*g.scale+2)
	g.p("void kmeans_worker(void *arg) {\n")
	g.emitWorkerBody(f, 3, 1, 2)
	g.p("}\n")
	g.p("int main() {\n")
	g.p("\tthread_t tids[8];\n")
	g.p("\tint i; int iter;\n")
	g.p("\tp0 = &g0;\n")
	g.p("\tfor (iter = 0; iter < 3; iter++) {\n")
	g.p("\t\tfor (i = 0; i < 8; i++) {\n")
	g.p("\t\t\ttids[i] = spawn(kmeans_worker, NULL);\n")
	g.p("\t\t}\n")
	g.p("\t\tfor (i = 0; i < 8; i++) {\n")
	g.p("\t\t\tjoin(tids[i]);\n")
	g.p("\t\t}\n")
	// Sequential centroid update between rounds: master-only pointer
	// work that the interleaving analysis proves serial.
	g.p("\t\tp1 = &g1;\n")
	g.p("\t\t*p1 = &g2;\n")
	for i := 0; i < g.nPost/2; i++ {
		g.p("\t\tpostproc%d();\n", i)
	}
	g.p("\t}\n")
	g.emitPost(f, 4)
	g.p("\treturn 0;\n")
	g.p("}\n")
}

// ---- radiosity (task queue, Figure 13) ----

func genRadiosity(g *gctx) {
	f := g.fab(3*g.unit*g.scale+3, 2)
	f.kernels = g.unit*g.scale + 1
	g.emitDecls(f)
	g.p("struct Task { int *data; struct Task *next; };\n")
	g.p("struct TQueue { struct Task *head; struct Task *tail; lock_t qlock; };\n")
	g.p("struct TQueue task_queue;\n")
	g.emitKernels(f)
	g.emitLocalFns(f)
	g.emitPostFuncs(f, g.unit*g.scale/2+1)

	g.p("void enqueue_task(struct Task *task) {\n")
	g.p("\tlock(&task_queue.qlock);\n")
	g.p("\tif (task_queue.tail == NULL) {\n")
	g.p("\t\ttask_queue.tail = task;\n")
	g.p("\t} else {\n")
	g.p("\t\ttask_queue.head = task;\n")
	g.p("\t}\n")
	g.p("\tunlock(&task_queue.qlock);\n")
	g.p("}\n")

	g.p("struct Task *dequeue_task() {\n")
	g.p("\tstruct Task *t;\n")
	g.p("\tlock(&task_queue.qlock);\n")
	g.p("\tt = task_queue.tail;\n")
	g.p("\ttask_queue.tail = NULL;\n")
	g.p("\ttask_queue.tail = t->next;\n")
	g.p("\tunlock(&task_queue.qlock);\n")
	g.p("\treturn t;\n")
	g.p("}\n")

	nQOps := 2*g.unit*g.scale + 2
	for i := 0; i < nQOps; i++ {
		g.p("void queue_op%d(void) {\n", i)
		g.p("\tlock(&task_queue.qlock);\n")
		g.p("\ttask_queue.tail = NULL;\n")
		g.p("\ttask_queue.tail = task_queue.head;\n")
		g.p("\tstruct Task *qt;\n")
		g.p("\tqt = task_queue.tail;\n")
		g.p("\ttask_queue.head = qt;\n")
		g.p("\tunlock(&task_queue.qlock);\n")
		g.p("}\n")
	}

	g.p("void radiosity_worker(void *arg) {\n")
	g.p("\tint iter;\n")
	g.p("\tfor (iter = 0; iter < 4; iter++) {\n")
	g.p("\t\tstruct Task *t;\n")
	g.p("\t\tt = dequeue_task();\n")
	g.p("\t\tt->data = &g0;\n")
	g.p("\t}\n")
	for i := 0; i < nQOps; i++ {
		g.p("\tqueue_op%d();\n", i)
	}
	g.emitWorkerBody(f, 2, 1, 2*g.unit*g.scale)
	g.p("}\n")

	g.p("int main() {\n")
	g.p("\tthread_t tids[8];\n")
	g.p("\tint i;\n")
	g.p("\tfor (i = 0; i < 4; i++) {\n")
	g.p("\t\tstruct Task *nt;\n")
	g.p("\t\tnt = malloc();\n")
	g.p("\t\tnt->data = &g1;\n")
	g.p("\t\tenqueue_task(nt);\n")
	g.p("\t}\n")
	g.p("\tfor (i = 0; i < 8; i++) {\n")
	g.p("\t\ttids[i] = spawn(radiosity_worker, NULL);\n")
	g.p("\t}\n")
	g.p("\tfor (i = 0; i < 8; i++) {\n")
	g.p("\t\tjoin(tids[i]);\n")
	g.p("\t}\n")
	g.emitPost(f, 3)
	g.p("\treturn 0;\n")
	g.p("}\n")
}

// ---- automount (lock-heavy daemon) ----

func genAutomount(g *gctx) {
	f := g.fab(4*g.unit*g.scale+4, 2)
	f.kernels = g.unit*g.scale + 1
	g.emitDecls(f)
	g.p("struct Mount { int *path; int flags; };\n")
	g.p("struct Mount mtab[32];\n")
	g.emitKernels(f)
	g.emitLocalFns(f)
	g.emitPostFuncs(f, g.unit*g.scale/2+1)

	// All table operations share the table mutex lk0, the usual daemon
	// idiom; the lock analysis can then prune most cross-section edges.
	nOps := f.locks
	for i := 0; i < nOps; i++ {
		g.p("void mount_op%d(void) {\n", i)
		g.p("\tlock(&lk0);\n")
		g.p("\tmtab[%d].path = &g%d;\n", g.rnd(32), g.rnd(f.globals))
		g.p("\tmtab[%d].path = &g%d;\n", g.rnd(32), g.rnd(f.globals))
		g.p("\tint *mp;\n")
		g.p("\tmp = mtab[%d].path;\n", g.rnd(32))
		g.p("\tmp = mtab[%d].path;\n", g.rnd(32))
		g.p("\tunlock(&lk0);\n")
		g.p("}\n")
	}

	g.p("void automount_worker(void *arg) {\n")
	g.p("\tint round;\n")
	g.p("\tfor (round = 0; round < 3; round++) {\n")
	for i := 0; i < 8; i++ {
		g.p("\t\tmount_op%d();\n", g.rnd(nOps))
	}
	g.p("\t}\n")
	g.emitWorkerBody(f, 1, 2, 2*g.unit*g.scale)
	g.p("}\n")
	g.emitPoolMain(f, "automount_worker", 6, 3)
}

// ---- ferret (pipeline) ----

func genFerret(g *gctx) {
	f := g.fab(6, 2)
	g.emitDecls(f)
	g.p("struct PQueue { int *slot; lock_t plock; };\n")
	stages := []string{"load", "seg", "extract", "vec", "rank", "out"}
	for i := range stages {
		g.p("struct PQueue q%d;\n", i)
	}
	g.emitKernels(f)
	g.emitLocalFns(f)
	g.emitPostFuncs(f, g.unit*g.scale/2+1)

	for i, st := range stages {
		g.p("void stage_%s(void *arg) {\n", st)
		g.p("\tint it;\n")
		g.p("\tfor (it = 0; it < 4; it++) {\n")
		g.p("\t\tint *item;\n")
		g.p("\t\tlock(&q%d.plock);\n", i)
		g.p("\t\titem = q%d.slot;\n", i)
		g.p("\t\tq%d.slot = NULL;\n", i)
		g.p("\t\tunlock(&q%d.plock);\n", i)
		if i+1 < len(stages) {
			g.p("\t\tlock(&q%d.plock);\n", i+1)
			g.p("\t\tq%d.slot = item;\n", i+1)
			g.p("\t\tunlock(&q%d.plock);\n", i+1)
		} else {
			g.p("\t\tshared_out = item;\n")
		}
		g.p("\t}\n")
		g.emitWorkerBody(f, 1, 2, 0)
		g.p("}\n")
	}

	g.p("int main() {\n")
	g.p("\tthread_t ts[%d];\n", len(stages))
	g.p("\tint i;\n")
	g.p("\tlock(&q0.plock);\n")
	g.p("\tq0.slot = &g0;\n")
	g.p("\tunlock(&q0.plock);\n")
	for i, st := range stages {
		g.p("\tts[%d] = spawn(stage_%s, NULL);\n", i, st)
	}
	g.p("\tfor (i = 0; i < %d; i++) {\n", len(stages))
	g.p("\t\tjoin(ts[i]);\n")
	g.p("\t}\n")
	g.emitPost(f, 3)
	g.p("\treturn 0;\n")
	g.p("}\n")
}

// ---- bodytrack (pointer-dense data-parallel kernels) ----

func genBodytrack(g *gctx) {
	f := g.fab(2, 3)
	f.ptrs *= 2
	f.kernels += f.kernels / 2
	g.emitDecls(f)
	g.p("int *particles[64];\n")
	g.emitKernels(f)
	g.emitLocalFns(f)
	g.emitPostFuncs(f, g.unit*g.scale/2+1)

	g.p("void track_worker(void *arg) {\n")
	g.p("\tint pi;\n")
	g.p("\tfor (pi = 0; pi < 8; pi++) {\n")
	g.p("\t\tparticles[pi] = &g%d;\n", g.rnd(f.globals))
	g.p("\t\tint *pv;\n")
	g.p("\t\tpv = particles[pi];\n")
	g.p("\t\t*pv = 1;\n")
	g.p("\t}\n")
	g.emitWorkerBody(f, 5, 2, 1)
	g.p("}\n")
	g.emitPoolMain(f, "track_worker", 8, 5)
}

// ---- httpd_server (accept loop + post-join master phase) ----

func genHttpd(g *gctx) {
	f := g.fab(4, 2)
	g.emitDecls(f)
	g.p("int *config_root;\n")
	g.p("int *log_ptr;\n")
	g.emitKernels(f)
	g.emitLocalFns(f)
	g.emitPostFuncs(f, g.unit*g.scale+2)

	g.p("void http_handler(void *arg) {\n")
	g.p("\tint *cfg;\n")
	g.p("\tcfg = config_root;\n")
	g.emitWorkerBody(f, 2, 4, 1)
	g.p("\tlock(&lk0);\n")
	g.p("\tlog_ptr = cfg;\n")
	g.p("\tunlock(&lk0);\n")
	g.p("}\n")

	g.p("int main() {\n")
	g.p("\tthread_t pool[16];\n")
	g.p("\tint i;\n")
	g.p("\tconfig_root = &g0;\n")
	g.p("\tfor (i = 0; i < 16; i++) {\n")
	g.p("\t\tpool[i] = spawn(http_handler, NULL);\n")
	g.p("\t}\n")
	g.p("\tfor (i = 0; i < 16; i++) {\n")
	g.p("\t\tjoin(pool[i]);\n")
	g.p("\t}\n")
	g.p("\t// post-processing statistics phase (sequential)\n")
	g.emitPost(f, 8)
	g.p("\treturn 0;\n")
	g.p("}\n")
}

// ---- mt_daapd (db thread + web workers, locks + locals) ----

func genMtDaapd(g *gctx) {
	f := g.fab(8, 2)
	f.localFns += f.localFns / 2
	g.emitDecls(f)
	g.p("int *db_root;\n")
	g.emitKernels(f)
	g.emitLocalFns(f)
	g.emitPostFuncs(f, g.unit*g.scale+2)

	g.p("void db_thread(void *arg) {\n")
	g.p("\tint round;\n")
	g.p("\tfor (round = 0; round < 4; round++) {\n")
	g.p("\t\tlock(&lk0);\n")
	g.p("\t\tdb_root = &g%d;\n", g.rnd(f.globals))
	g.p("\t\tunlock(&lk0);\n")
	g.p("\t}\n")
	g.emitWorkerBody(f, 1, 2, 2)
	g.p("}\n")

	g.p("void web_worker(void *arg) {\n")
	g.p("\tint *snapshot;\n")
	g.p("\tlock(&lk0);\n")
	g.p("\tsnapshot = db_root;\n")
	g.p("\tunlock(&lk0);\n")
	g.emitWorkerBody(f, 2, 5, 2)
	g.p("}\n")

	g.p("int main() {\n")
	g.p("\tthread_t dbt;\n")
	g.p("\tthread_t web[8];\n")
	g.p("\tint i;\n")
	g.p("\tdb_root = &g0;\n")
	g.p("\tdbt = spawn(db_thread, NULL);\n")
	g.p("\tfor (i = 0; i < 8; i++) {\n")
	g.p("\t\tweb[i] = spawn(web_worker, NULL);\n")
	g.p("\t}\n")
	g.p("\tfor (i = 0; i < 8; i++) {\n")
	g.p("\t\tjoin(web[i]);\n")
	g.p("\t}\n")
	g.p("\tjoin(dbt);\n")
	g.emitPost(f, 4)
	g.p("\treturn 0;\n")
	g.p("}\n")
}

// ---- raytrace (large, deep call graph, unsynchronized shared writes) ----

func genRaytrace(g *gctx) {
	f := g.fab(2, 4)
	g.emitDecls(f)
	g.p("int *framebuf[128];\n")
	g.emitKernels(f)
	g.emitLocalFns(f)
	g.emitPostFuncs(f, g.unit*g.scale/2+1)

	g.p("void shade(int depth2) {\n")
	g.p("\tkernel0();\n")
	g.p("\tif (depth2 > 0) {\n")
	g.p("\t\tshade(depth2 - 1);\n")
	g.p("\t}\n")
	g.p("}\n")

	g.p("void render_tile(void *arg) {\n")
	g.p("\tint px;\n")
	g.p("\tfor (px = 0; px < 16; px++) {\n")
	g.p("\t\tframebuf[px] = &g%d;\n", g.rnd(f.globals))
	g.p("\t\tshade(3);\n")
	g.p("\t}\n")
	g.emitWorkerBody(f, 6, 2, 1)
	g.p("}\n")
	g.emitPoolMain(f, "render_tile", 8, 6)
}

// ---- x264 (pipeline + pool + lock groups) ----

func genX264(g *gctx) {
	f := g.fab(8, 3)
	g.emitDecls(f)
	g.p("struct Frame { int *plane; struct Frame *ref; };\n")
	g.p("struct Frame frames[16];\n")
	g.p("int *dpb[32];\n")
	g.emitKernels(f)
	g.emitLocalFns(f)
	g.emitPostFuncs(f, g.unit*g.scale/2+1)

	g.p("void lookahead(void *arg) {\n")
	g.p("\tint fi;\n")
	g.p("\tfor (fi = 0; fi < 8; fi++) {\n")
	g.p("\t\tlock(&lk0);\n")
	g.p("\t\tframes[fi].plane = &g%d;\n", g.rnd(f.globals))
	g.p("\t\tunlock(&lk0);\n")
	g.p("\t}\n")
	g.emitWorkerBody(f, 3, 2, 2)
	g.p("}\n")

	g.p("void encode_slice(void *arg) {\n")
	g.p("\tint mb;\n")
	g.p("\tfor (mb = 0; mb < 8; mb++) {\n")
	g.p("\t\tint *plane;\n")
	g.p("\t\tlock(&lk0);\n")
	g.p("\t\tplane = frames[mb].plane;\n")
	g.p("\t\tunlock(&lk0);\n")
	g.p("\t\tdpb[mb] = plane;\n")
	g.p("\t}\n")
	g.emitWorkerBody(f, 4, 3, 3)
	g.p("}\n")

	g.p("void deblock(void *arg) {\n")
	g.emitWorkerBody(f, 3, 2, 2)
	g.p("}\n")

	g.p("int main() {\n")
	g.p("\tthread_t la;\n")
	g.p("\tthread_t enc[8];\n")
	g.p("\tthread_t db2;\n")
	g.p("\tint i;\n")
	g.p("\tla = spawn(lookahead, NULL);\n")
	g.p("\tfor (i = 0; i < 8; i++) {\n")
	g.p("\t\tenc[i] = spawn(encode_slice, NULL);\n")
	g.p("\t}\n")
	g.p("\tdb2 = spawn(deblock, NULL);\n")
	g.p("\tfor (i = 0; i < 8; i++) {\n")
	g.p("\t\tjoin(enc[i]);\n")
	g.p("\t}\n")
	g.p("\tjoin(la);\n")
	g.p("\tjoin(db2);\n")
	g.emitPost(f, 6)
	g.p("\treturn 0;\n")
	g.p("}\n")
}
