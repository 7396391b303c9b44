// ContextBuilder's dirty-set contract: re-deriving only the marked tasks'
// views must leave the context equal, field for field, to a build that
// re-derives every view. Each case applies one of the mutations a host marks
// a task for (see DirtyTasks), builds incrementally into a context that
// carries the previous build's views, and compares it with an all-dirty
// build into a fresh context.
#include "src/engine/context_builder.h"

#include <gtest/gtest.h>

#include <limits>
#include <vector>

namespace rtdvs {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

struct Host {
  TaskSet tasks;
  MachineSpec machine = MachineSpec::Machine0();
  std::vector<ContextBuilder::TaskSnapshot> snapshots;
  std::vector<Job> jobs;
  EngineTotals totals;
  ContextBuilder builder;
  DirtyTasks dirty;
  PolicyContext ctx;

  explicit Host(TaskSet set) : tasks(std::move(set)) {
    builder.Bind(&tasks, &machine);
    for (int id = 0; id < tasks.size(); ++id) {
      snapshots.push_back({tasks.task(id).phase_ms, 0.0, tasks.task(id).wcet_ms});
    }
    dirty.Reset(tasks.size());
  }

  auto Snapshot() {
    return [this](int id) { return snapshots[static_cast<size_t>(id)]; };
  }

  Job& Release(int id, double release_ms, double deadline_ms) {
    Job job;
    job.task_id = id;
    job.release_ms = release_ms;
    job.deadline_ms = deadline_ms;
    job.wcet_work = tasks.task(id).wcet_ms;
    job.actual_work = job.wcet_work;
    jobs.push_back(job);
    dirty.Mark(id);
    return jobs.back();
  }

  void Execute(Job& job, double work) {
    job.executed_work += work;
    snapshots[static_cast<size_t>(job.task_id)].cumulative_executed += work;
    totals.busy_ms += work;
    totals.work += work;
    dirty.Mark(job.task_id);
  }

  void Finish(Job& job) {
    job.finished = true;
    snapshots[static_cast<size_t>(job.task_id)].last_actual_work =
        job.executed_work;
    dirty.Mark(job.task_id);
  }

  // Incremental build into the persistent context.
  void Build(double now_ms) {
    builder.Build(now_ms, jobs, totals, Snapshot(), &ctx, &dirty);
    dirty.Clear();
  }

  // Every view re-derived into a fresh context.
  PolicyContext FullBuild(double now_ms) {
    ContextBuilder full;
    full.Bind(&tasks, &machine);
    PolicyContext out;
    full.Build(now_ms, jobs, totals, Snapshot(), &out);
    return out;
  }
};

std::vector<int> Ids(const DirtyTasks& dirty) {
  return {dirty.ids().begin(), dirty.ids().end()};
}

void ExpectSameContext(const PolicyContext& got, const PolicyContext& want) {
  EXPECT_EQ(got.now_ms, want.now_ms);
  EXPECT_EQ(got.tasks, want.tasks);
  EXPECT_EQ(got.machine, want.machine);
  EXPECT_EQ(got.cumulative_busy_ms, want.cumulative_busy_ms);
  EXPECT_EQ(got.cumulative_idle_ms, want.cumulative_idle_ms);
  EXPECT_EQ(got.cumulative_work, want.cumulative_work);
  ASSERT_EQ(got.views.size(), want.views.size());
  for (size_t i = 0; i < got.views.size(); ++i) {
    SCOPED_TRACE(testing::Message() << "task " << i);
    EXPECT_EQ(got.views[i].has_active_job, want.views[i].has_active_job);
    EXPECT_EQ(got.views[i].next_deadline_ms, want.views[i].next_deadline_ms);
    EXPECT_EQ(got.views[i].executed_in_invocation,
              want.views[i].executed_in_invocation);
    EXPECT_EQ(got.views[i].worst_case_remaining,
              want.views[i].worst_case_remaining);
    EXPECT_EQ(got.views[i].cumulative_executed, want.views[i].cumulative_executed);
    EXPECT_EQ(got.views[i].last_actual_work, want.views[i].last_actual_work);
  }
}

TEST(ContextBuilderTest, FirstBuildDerivesEveryView) {
  Host host(TaskSet::PaperExample());
  host.Build(0.0);
  ExpectSameContext(host.ctx, host.FullBuild(0.0));
  EXPECT_TRUE(host.dirty.ids().empty());
}

TEST(ContextBuilderTest, ReleaseAndExecutionTouchOnlyTheirTasks) {
  Host host(TaskSet::PaperExample());
  host.Build(0.0);
  for (int id = 0; id < host.tasks.size(); ++id) {
    host.snapshots[static_cast<size_t>(id)].next_release_ms =
        host.tasks.task(id).period_ms;
    host.Release(id, 0.0, host.tasks.task(id).period_ms);
  }
  host.Build(0.0);
  ExpectSameContext(host.ctx, host.FullBuild(0.0));

  host.Execute(host.jobs[0], 1.5);
  EXPECT_EQ(Ids(host.dirty), std::vector<int>{0});
  host.Build(1.5);
  ExpectSameContext(host.ctx, host.FullBuild(1.5));
}

TEST(ContextBuilderTest, BackloggedTaskUnderContinueLate) {
  // Task 0 misses its first deadline and keeps running late, so it holds two
  // unfinished jobs. The older one defines the view until it completes; then
  // the newer one takes over.
  Host host(TaskSet({{"T1", 4.0, 3.0, 0.0}, {"T2", 10.0, 2.0, 0.0}}));
  host.Build(0.0);
  host.Release(0, 0.0, 4.0);
  host.Release(1, 0.0, 10.0);
  host.Execute(host.jobs[1], 2.0);
  host.Finish(host.jobs[1]);
  host.Execute(host.jobs[0], 2.0);
  host.snapshots[0].next_release_ms = 8.0;
  host.Release(0, 4.0, 8.0);
  host.Build(4.0);
  ExpectSameContext(host.ctx, host.FullBuild(4.0));
  EXPECT_EQ(host.ctx.views[0].next_deadline_ms, 4.0);

  host.Execute(host.jobs[0], 1.0);
  host.Finish(host.jobs[0]);
  host.Build(5.0);
  ExpectSameContext(host.ctx, host.FullBuild(5.0));
  EXPECT_EQ(host.ctx.views[0].next_deadline_ms, 8.0);
  EXPECT_EQ(host.ctx.views[0].executed_in_invocation, 0.0);
}

TEST(ContextBuilderTest, AbortUnderAbortJob) {
  Host host(TaskSet({{"T1", 5.0, 4.0, 0.0}, {"T2", 6.0, 3.0, 0.0}}));
  host.Release(0, 0.0, 5.0);
  host.Release(1, 0.0, 6.0);
  host.Build(0.0);
  host.Execute(host.jobs[0], 2.5);
  host.Build(2.5);
  // The deadline passes with work left: the job is abandoned, not completed,
  // so last_actual_work keeps its previous value.
  host.jobs[0].finished = true;
  host.dirty.Mark(0);
  host.snapshots[0].next_release_ms = 5.0;
  host.Build(5.0);
  ExpectSameContext(host.ctx, host.FullBuild(5.0));
  EXPECT_FALSE(host.ctx.views[0].has_active_job);
}

TEST(ContextBuilderTest, CbsReplacementJob) {
  // A CBS server (task 1) exhausts its budget: the active job completes and
  // a replacement released now carries the postponed deadline. The server
  // has no periodic release, so its snapshot deadline stays +inf.
  Host host(TaskSet({{"T1", 10.0, 2.0, 0.0}, {"server", 8.0, 2.0, 0.0}}));
  host.snapshots[1].next_release_ms = kInf;
  host.Release(0, 0.0, 10.0);
  host.Release(1, 1.0, 9.0);
  host.Build(1.0);
  host.Execute(host.jobs[1], 2.0);
  host.Finish(host.jobs[1]);
  host.Release(1, 3.0, 17.0);
  host.Build(3.0);
  ExpectSameContext(host.ctx, host.FullBuild(3.0));
  EXPECT_EQ(host.ctx.views[1].next_deadline_ms, 17.0);

  host.Execute(host.jobs[2], 0.5);
  host.Finish(host.jobs[2]);
  host.Build(3.5);
  ExpectSameContext(host.ctx, host.FullBuild(3.5));
  EXPECT_EQ(host.ctx.views[1].next_deadline_ms, kInf);
}

TEST(ContextBuilderTest, StepThatMarksNothingRefreshesTimeAndTotals) {
  Host host(TaskSet::PaperExample());
  host.Release(0, 0.0, 8.0);
  host.Build(0.0);
  host.totals.idle_ms += 2.0;
  ASSERT_TRUE(host.dirty.ids().empty());
  host.Build(2.0);
  ExpectSameContext(host.ctx, host.FullBuild(2.0));
  EXPECT_EQ(host.ctx.now_ms, 2.0);
  EXPECT_EQ(host.ctx.cumulative_idle_ms, 2.0);
}

TEST(ContextBuilderTest, MarksAccumulateUntilTheNextBuild) {
  // A step that skips the callback block leaves its marks for the next one.
  Host host(TaskSet::PaperExample());
  host.Build(0.0);
  host.snapshots[2].next_release_ms = 14.0;
  host.Release(2, 0.0, 14.0);
  host.Execute(host.jobs[0], 0.5);
  host.Release(0, 0.0, 8.0);
  host.Execute(host.jobs[1], 0.5);
  host.dirty.Mark(2);
  EXPECT_EQ(Ids(host.dirty), (std::vector<int>{2, 0}));
  host.Build(1.0);
  ExpectSameContext(host.ctx, host.FullBuild(1.0));
}

TEST(ContextBuilderTest, OlderJobOutlivesTheLatest) {
  // Task 0's newer job finishes while an older one is still unfinished: the
  // older job, not the task's latest, defines the view again.
  Host host(TaskSet({{"T1", 10.0, 4.0, 0.0}, {"T2", 10.0, 2.0, 0.0}}));
  host.Release(0, 0.0, 20.0);
  host.Release(0, 1.0, 11.0);
  host.Release(1, 1.0, 11.0);
  host.Build(1.0);
  ExpectSameContext(host.ctx, host.FullBuild(1.0));
  host.Execute(host.jobs[1], 4.0);
  host.Finish(host.jobs[1]);
  host.Build(5.0);
  ExpectSameContext(host.ctx, host.FullBuild(5.0));
  EXPECT_TRUE(host.ctx.views[0].has_active_job);
  EXPECT_EQ(host.ctx.views[0].next_deadline_ms, 20.0);
}

TEST(DirtyTasksTest, MarkIsIdempotentAndClearResets) {
  DirtyTasks dirty;
  dirty.Reset(4);
  EXPECT_EQ(Ids(dirty), (std::vector<int>{0, 1, 2, 3}));
  dirty.Clear();
  EXPECT_TRUE(dirty.ids().empty());
  dirty.Mark(3);
  dirty.Mark(1);
  dirty.Mark(3);
  EXPECT_EQ(Ids(dirty), (std::vector<int>{3, 1}));
  EXPECT_TRUE(dirty.contains(1));
  EXPECT_FALSE(dirty.contains(0));
  EXPECT_EQ(dirty.num_tasks(), 4);
}

}  // namespace
}  // namespace rtdvs
