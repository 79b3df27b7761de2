#include "power/link_power.hpp"

#include <bit>
#include <limits>

#include "common/fatal.hpp"
#include "common/rng.hpp"

namespace dvsnet::power
{

namespace
{

std::unique_ptr<LinkPowerModel>
buildTable(const Spec &, const LinkPowerContext &context)
{
    return std::make_unique<TableLinkPowerModel>(context.coeffA,
                                                 context.coeffB);
}

std::unique_ptr<LinkPowerModel>
buildToggle(const Spec &spec, const LinkPowerContext &context)
{
    constexpr double kNoLimit = std::numeric_limits<double>::infinity();
    auto params = ToggleLinkPowerModel::defaultParams(context);
    params.idleFraction = spec.number("idle", params.idleFraction, 0.0, 1.0);
    params.payloadWidth = spec.integer("width", params.payloadWidth);
    if (params.payloadWidth < 1 || params.payloadWidth > 64)
        spec.reject("width", "must be in [1, 64]");
    // Re-derive the calibrated capacitances from the final idle fraction
    // and width (see defaultParams), then let explicit cw/cc override.
    // An explicit Cw keeps the default Cc = Cw/2 coupling ratio unless
    // the spec also pins Cc.
    params.toggleCapacitanceF = spec.number(
        "cw",
        8.0 * (1.0 - params.idleFraction) * context.coeffA *
            static_cast<double>(context.linksPerChannel) /
            (5.0 * static_cast<double>(params.payloadWidth)),
        0.0, kNoLimit);
    params.couplingCapacitanceF = spec.number(
        "cc", params.toggleCapacitanceF / 2.0, 0.0, kNoLimit);
    return std::make_unique<ToggleLinkPowerModel>(params, context.coeffA,
                                                  context.coeffB);
}

void
registerBuiltins(LinkPowerRegistry &registry)
{
    registry.add("table",
                 "the paper's fitted P(V,f) = a*V^2*f + b per-level law",
                 {}, buildTable);
    registry.add("toggle",
                 "data-dependent toggle/coupling energy per flit on top "
                 "of a static floor",
                 {"cw", "cc", "idle", "width"}, buildToggle);
}

} // namespace

std::uint64_t
flitPayloadWord(router::PacketId packet, std::uint16_t seq)
{
    // Golden-ratio mix of the flit's deterministic identity; splitmix64
    // gives avalanche so consecutive seq numbers produce ~random words.
    std::uint64_t state = packet * 0x9e3779b97f4a7c15ull + seq;
    return splitmix64(state);
}

ToggleLinkPowerModel::Params
ToggleLinkPowerModel::defaultParams(const LinkPowerContext &context)
{
    Params p;
    p.idleFraction = 0.5;
    p.payloadWidth = 32;
    // Calibrate so a fully utilized channel carrying random data matches
    // the table backend's dynamic power: random consecutive words toggle
    // width/2 bits and couple ~width/4 adjacent pairs per flit, and one
    // flit per link period means E_flit * f must equal the non-idle
    // share (1 - idle) * a * V^2 * f * linksPerChannel.  With
    // Cc = Cw/2 that gives Cw = 8*(1-idle)*a*L / (5*width).
    const double width = static_cast<double>(p.payloadWidth);
    p.toggleCapacitanceF =
        8.0 * (1.0 - p.idleFraction) * context.coeffA *
        static_cast<double>(context.linksPerChannel) / (5.0 * width);
    p.couplingCapacitanceF = p.toggleCapacitanceF / 2.0;
    return p;
}

ToggleLinkPowerModel::ToggleLinkPowerModel(const Params &params,
                                           double coeffA, double coeffB)
    : params_(params), coeffA_(coeffA), coeffB_(coeffB)
{
    DVSNET_ASSERT(params_.payloadWidth >= 1 && params_.payloadWidth <= 64,
                  "toggle payload width out of range");
    payloadMask_ = params_.payloadWidth == 64
                       ? ~std::uint64_t{0}
                       : (std::uint64_t{1} << params_.payloadWidth) - 1;
}

double
ToggleLinkPowerModel::flitEnergyJ(std::uint64_t payload,
                                  std::uint64_t prevPayload,
                                  double voltage) const
{
    const std::uint64_t flips = (payload ^ prevPayload) & payloadMask_;
    const int toggles = std::popcount(flips);
    const int couplings = std::popcount(flips & (flips >> 1));
    return (static_cast<double>(toggles) * params_.toggleCapacitanceF +
            static_cast<double>(couplings) * params_.couplingCapacitanceF) *
           voltage * voltage;
}

const LinkPowerRegistry &
linkPowerRegistry()
{
    static const LinkPowerRegistry registry = [] {
        LinkPowerRegistry r("link-power backend");
        registerBuiltins(r);
        return r;
    }();
    return registry;
}

std::vector<std::string>
validateLinkPowerSpec(const std::string &text)
{
    try {
        return linkPowerRegistry().validate(Spec::parse(text));
    } catch (const ConfigError &e) {
        return {e.what()};
    }
}

std::unique_ptr<LinkPowerModel>
buildLinkPowerModel(const std::string &text,
                    const LinkPowerContext &context)
{
    auto model = linkPowerRegistry().build(Spec::parse(text), context);
    DVSNET_ASSERT(model != nullptr, "link-power builder returned null");
    return model;
}

} // namespace dvsnet::power
