#include "runtime/engine.h"

#include <algorithm>
#include <limits>

#include "alloc/allocator.h"
#include "core/check.h"
#include "core/dtype.h"
#include "core/shape.h"
#include "core/tensor_meta.h"
#include "core/types.h"
#include "runtime/plan.h"
#include "sim/clock.h"
#include "sim/cost_model.h"
#include "trace/event.h"
#include "trace/recorder.h"

namespace pinpoint {
namespace runtime {
namespace {

/** Slot value of a name the engine has not interned yet. */
constexpr trace::OpId kNotInterned =
    std::numeric_limits<trace::OpId>::max();

}  // namespace

std::size_t
MemoryUsage::total() const
{
    std::size_t n = 0;
    for (std::size_t c : current)
        n += c;
    return n;
}

Engine::Engine(const Plan &plan, alloc::Allocator &allocator,
               sim::VirtualClock &clock, const sim::CostModel &cost,
               trace::TraceRecorder *recorder, EngineOptions options)
    : plan_(plan), allocator_(allocator), clock_(clock), cost_(cost),
      recorder_(recorder), options_(options),
      op_names_(plan.iteration_ops.size(), kNotInterned),
      tensor_names_(plan.tensors.size(), {kNotInterned, kNotInterned}),
      staging_names_{kNotInterned, kNotInterned},
      shuffle_name_(kNotInterned)
{
    PP_CHECK(options_.staging_buffer_bytes == 0 ||
                 options_.iterations_per_epoch > 0,
             "a staging buffer requires iterations_per_epoch > 0");
}

Engine::~Engine()
{
    try {
        teardown();
    } catch (...) {
        // Destructors must not throw; teardown errors indicate an
        // already-broken allocator state that tests will catch.
    }
}

alloc::Block &
Engine::bind(TensorId id)
{
    const TensorMeta &meta = id == staging_tensor_
                                 ? staging_meta_
                                 : plan_.tensor(id);
    PP_ASSERT(!bound_.count(id),
              "tensor " << meta.name << " is already bound");
    alloc::Block b = allocator_.allocate(meta.bytes());
    auto [it, ok] = bound_.emplace(id, b);
    PP_ASSERT(ok, "double bind of tensor " << meta.name);
    note_alloc(meta, b);
    if (recorder_) {
        trace::MemoryEvent e;
        e.time = clock_.now();
        e.kind = trace::EventKind::kMalloc;
        e.block = b.id;
        e.ptr = b.ptr;
        e.size = b.size;
        e.tensor = id;
        e.category = meta.category;
        e.iteration = current_iteration_;
        e.op_index = -1;
        const trace::OpId name =
            intern(tensor_names(id)[0], "alloc.", meta.name);
        recorder_->record(e, name);
    }
    return it->second;
}

void
Engine::release(TensorId id)
{
    auto it = bound_.find(id);
    const TensorMeta &meta = id == staging_tensor_
                                 ? staging_meta_
                                 : plan_.tensor(id);
    PP_ASSERT(it != bound_.end(),
              "tensor " << meta.name << " is not bound");
    const alloc::Block b = it->second;
    bound_.erase(it);
    allocator_.deallocate(b.id);
    note_free(meta, b);
    if (recorder_) {
        trace::MemoryEvent e;
        e.time = clock_.now();
        e.kind = trace::EventKind::kFree;
        e.block = b.id;
        e.ptr = b.ptr;
        e.size = b.size;
        e.tensor = id;
        e.category = meta.category;
        e.iteration = current_iteration_;
        e.op_index = -1;
        const trace::OpId name =
            intern(tensor_names(id)[1], "free.", meta.name);
        recorder_->record(e, name);
    }
}

void
Engine::note_alloc(const TensorMeta &meta, const alloc::Block &b)
{
    auto &cur = usage_.current[static_cast<int>(meta.category)];
    cur += b.size;
    auto &peak = usage_.peak[static_cast<int>(meta.category)];
    peak = std::max(peak, cur);
    const std::size_t total = usage_.total();
    if (total > usage_.peak_total) {
        usage_.peak_total = total;
        usage_.at_peak = usage_.current;
    }
}

void
Engine::note_free(const TensorMeta &meta, const alloc::Block &b)
{
    auto &cur = usage_.current[static_cast<int>(meta.category)];
    PP_ASSERT(cur >= b.size, "per-category accounting underflow on "
              << meta.name);
    cur -= b.size;
}

trace::OpId
Engine::intern(trace::OpId &slot, const char *prefix,
               const std::string &name)
{
    // Interned on first use, right before the first event that
    // carries the name, so ids follow first appearance in the trace.
    if (slot == kNotInterned && recorder_)
        slot = recorder_->intern_op(prefix + name);
    return slot;
}

std::array<trace::OpId, 2> &
Engine::tensor_names(TensorId id)
{
    if (id == staging_tensor_)
        return staging_names_;
    return tensor_names_[static_cast<std::size_t>(id)];
}

void
Engine::record_access(trace::EventKind kind, TensorId id,
                      std::int32_t op_index, trace::OpId op)
{
    if (!recorder_)
        return;
    auto it = bound_.find(id);
    const TensorMeta &meta = id == staging_tensor_
                                 ? staging_meta_
                                 : plan_.tensor(id);
    PP_ASSERT(it != bound_.end(),
              "access to unbound tensor " << meta.name);
    trace::MemoryEvent e;
    e.time = clock_.now();
    e.kind = kind;
    e.block = it->second.id;
    e.ptr = it->second.ptr;
    e.size = it->second.size;
    e.tensor = id;
    e.category = meta.category;
    e.iteration = current_iteration_;
    e.op_index = op_index;
    recorder_->record(e, op);
}

void
Engine::setup()
{
    current_iteration_ = kSetupIteration;
    // Parameters and buffers: allocate and initialize on device.
    for (TensorId id : plan_.persistent) {
        bind(id);
        const TensorMeta &meta = plan_.tensor(id);
        // Initialization kernel (e.g. kaiming_uniform_) writes the
        // parameter once.
        clock_.advance(cost_.kernel_time(
            static_cast<double>(meta.shape.numel()), 0, meta.bytes()));
        trace::OpId init = kNotInterned;
        record_access(trace::EventKind::kWrite, id, -1,
                      intern(init, "init.", meta.name));
    }
    if (options_.staging_buffer_bytes > 0) {
        staging_tensor_ = plan_.tensors.size() + 1000;
        staging_meta_.id = staging_tensor_;
        staging_meta_.name = "dataset.staging";
        staging_meta_.shape = Shape{static_cast<std::int64_t>(
            options_.staging_buffer_bytes / 4)};
        staging_meta_.dtype = DType::kF32;
        staging_meta_.category = Category::kInput;
        bind(staging_tensor_);
        stage_dataset(true);
    }
    setup_done_ = true;
}

void
Engine::stage_dataset(bool initial)
{
    const std::size_t bytes = options_.staging_buffer_bytes;
    if (initial) {
        // Initial upload of the on-device dataset shard.
        clock_.advance(cost_.h2d_time(bytes));
        trace::OpId stage = kNotInterned;
        record_access(trace::EventKind::kWrite, staging_tensor_, -1,
                      intern(stage, "dataset.stage", {}));
        return;
    }
    // Epoch boundary: on-device shuffle touches the whole buffer.
    record_access(trace::EventKind::kRead, staging_tensor_, -1,
                  intern(shuffle_name_, "dataset.shuffle", {}));
    clock_.advance(cost_.kernel_time(0.0, bytes, bytes));
    record_access(trace::EventKind::kWrite, staging_tensor_, -1,
                  shuffle_name_);
}

void
Engine::execute_op(const Op &op, std::int32_t op_index)
{
    for (TensorId id : op.allocs)
        bind(id);
    trace::OpId &name = op_names_[static_cast<std::size_t>(op_index)];
    for (TensorId id : op.reads)
        record_access(trace::EventKind::kRead, id, op_index,
                      intern(name, "", op.name));

    std::size_t read_bytes = 0;
    std::size_t write_bytes = 0;
    for (TensorId id : op.reads)
        read_bytes += plan_.tensor(id).bytes();
    for (TensorId id : op.writes)
        write_bytes += plan_.tensor(id).bytes();

    if (op.phase == OpPhase::kDataLoad)
        clock_.advance(cost_.h2d_time(op.h2d_bytes));
    else
        clock_.advance(cost_.kernel_time(op.flops, read_bytes,
                                         write_bytes));

    for (TensorId id : op.writes)
        record_access(trace::EventKind::kWrite, id, op_index,
                      intern(name, "", op.name));
    for (TensorId id : op.frees)
        release(id);
}

void
Engine::run_iteration()
{
    current_iteration_ =
        options_.continuous_trace
            ? 0
            : static_cast<std::uint32_t>(iterations_done_);
    if (staging_tensor_ != kInvalidTensor && iterations_done_ > 0 &&
        iterations_done_ % options_.iterations_per_epoch == 0) {
        stage_dataset(false);
    }
    for (std::size_t i = 0; i < plan_.iteration_ops.size(); ++i)
        execute_op(plan_.iteration_ops[i],
                   static_cast<std::int32_t>(i));
    ++iterations_done_;
}

void
Engine::run(int iterations)
{
    PP_CHECK(iterations > 0, "iterations must be positive");
    if (!setup_done_)
        setup();
    for (int i = 0; i < iterations; ++i)
        run_iteration();
}

void
Engine::teardown()
{
    // Free any remaining bindings (persistent tensors and, if an
    // exception unwound mid-iteration, stray transients).
    std::vector<TensorId> ids;
    ids.reserve(bound_.size());
    for (const auto &[id, b] : bound_)
        ids.push_back(id);
    std::sort(ids.begin(), ids.end());
    for (TensorId id : ids)
        release(id);
}

}  // namespace runtime
}  // namespace pinpoint
