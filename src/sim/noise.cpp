#include "sim/noise.hpp"

#include "common/error.hpp"

namespace qa
{

const NoiseModel*
activeNoise(const NoiseModel* noise)
{
    if (noise == nullptr || !noise->enabled()) return nullptr;
    noise->validate();
    return noise;
}

void
NoiseModel::validate() const
{
    QA_REQUIRE_CODE(readout_p01 >= 0.0 && readout_p01 <= 1.0,
                    ErrorCode::kInvalidNoiseModel,
                    "readout_p01 must lie in [0, 1]");
    QA_REQUIRE_CODE(readout_p10 >= 0.0 && readout_p10 <= 1.0,
                    ErrorCode::kInvalidNoiseModel,
                    "readout_p10 must lie in [0, 1]");
    for (const KrausChannel& channel : noise_1q) {
        QA_REQUIRE_CODE(channel.isTracePreserving(),
                        ErrorCode::kInvalidNoiseModel,
                        "1q channel '" + channel.name() +
                            "' is not trace preserving");
    }
    for (const KrausChannel& channel : noise_2q) {
        QA_REQUIRE_CODE(channel.isTracePreserving(),
                        ErrorCode::kInvalidNoiseModel,
                        "2q channel '" + channel.name() +
                            "' is not trace preserving");
    }
}

Hash128
NoiseModel::fingerprint() const
{
    HashStream stream(0x6e6f697365ULL); // domain tag: "noise"
    const auto absorbChannels =
        [&stream](const std::vector<KrausChannel>& channels) {
            stream.u64(channels.size());
            for (const KrausChannel& channel : channels) {
                const auto& ops = channel.ops();
                stream.u64(ops.size());
                for (const CMatrix& op : ops) {
                    for (size_t r = 0; r < op.rows(); ++r) {
                        for (size_t c = 0; c < op.cols(); ++c) {
                            stream.f64(op(r, c).real());
                            stream.f64(op(r, c).imag());
                        }
                    }
                }
            }
        };
    absorbChannels(noise_1q);
    absorbChannels(noise_2q);
    stream.f64(readout_p01);
    stream.f64(readout_p10);
    return stream.digest();
}

NoiseModel
NoiseModel::ibmqMelbourneLike()
{
    NoiseModel model;
    model.noise_1q.push_back(KrausChannel::depolarizing(0.0010));
    model.noise_1q.push_back(KrausChannel::amplitudeDamping(0.0010));
    model.noise_2q.push_back(KrausChannel::depolarizing(0.0300));
    model.noise_2q.push_back(KrausChannel::amplitudeDamping(0.0030));
    model.readout_p01 = 0.015;
    model.readout_p10 = 0.035;
    return model;
}

NoiseModel
NoiseModel::depolarizing(double p1, double p2)
{
    NoiseModel model;
    if (p1 > 0.0) model.noise_1q.push_back(KrausChannel::depolarizing(p1));
    if (p2 > 0.0) model.noise_2q.push_back(KrausChannel::depolarizing(p2));
    return model;
}

} // namespace qa
