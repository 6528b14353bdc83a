/**
 * @file
 * Deterministic random number generation.
 *
 * Every stochastic component in qassert (shot sampling, trajectory noise,
 * random-state generation in tests) draws from an explicitly seeded Rng so
 * that experiments and tests are bit-reproducible.
 *
 * The engine behind Rng is a lazily initialised MT19937-64. Invariant: for
 * the same seed its output is std::mt19937_64's, draw for draw, so every
 * sampled count and pinned payload digest is what the standard engine
 * gives. Only the timing of the work differs. The standard engine writes
 * all 312 state words when seeded and twists all 312 on its first draw,
 * which a shot that draws a handful of numbers pays in full. But output
 * j < 156 of a fresh engine reads only the init words j, j+1 and j+156 of
 * the seeding chain. So construction stores word 0 only, and draw j
 * extends the chain to word j+156, twists word j in place and tempers it.
 * Draw 156 finishes the first twist (words 156..311, in the standard
 * order), and from then on the engine is the standard generator.
 */
#ifndef QA_COMMON_RNG_HPP
#define QA_COMMON_RNG_HPP

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <random>
#include <vector>

namespace qa
{

/**
 * splitmix64 finalizer: a strong 64-bit bit mixer. Used to derive
 * decorrelated seeds for counter-based RNG sub-streams (nearby inputs
 * map to statistically independent outputs).
 */
inline uint64_t
splitmix64(uint64_t x)
{
    x += 0x9E3779B97F4A7C15ULL;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
    return x ^ (x >> 31);
}

/**
 * Seedable random source wrapping a 64-bit Mersenne Twister.
 *
 * Thin value type: copyable, and copies evolve independently, which lets a
 * caller fork reproducible sub-streams for parallel shots.
 */
class Rng
{
    /**
     * MT19937-64 with lazy initialisation (see the file comment). A
     * UniformRandomBitGenerator, so the std distributions draw from it
     * exactly as they draw from std::mt19937_64.
     */
    class Engine
    {
      public:
        using result_type = uint64_t;

        static constexpr result_type min() { return 0; }
        static constexpr result_type max() { return ~result_type(0); }

        explicit Engine(uint64_t seed) { x_[0] = seed; }

        /** Copies the words written so far; the rest are still unset. */
        Engine(const Engine& other)
            : init_(other.init_), ready_(other.ready_), next_(other.next_)
        {
            std::copy_n(other.x_, init_, x_);
        }

        Engine&
        operator=(const Engine& other)
        {
            if (this != &other) {
                init_ = other.init_;
                ready_ = other.ready_;
                next_ = other.next_;
                std::copy_n(other.x_, init_, x_);
            }
            return *this;
        }

        result_type
        operator()()
        {
            if (next_ == ready_) refill();
            uint64_t z = x_[next_++];
            z ^= (z >> 29) & 0x5555555555555555ULL;
            z ^= (z << 17) & 0x71D67FFFEDA60000ULL;
            z ^= (z << 37) & 0xFFF7EEE000000000ULL;
            return z ^ (z >> 43);
        }

      private:
        static constexpr size_t kN = 312;
        static constexpr size_t kM = 156;

        /** One twist step: word k from words k, k+1 and k+m (mod n). */
        static uint64_t
        twist(uint64_t cur, uint64_t next, uint64_t far)
        {
            const uint64_t y = (cur & ~0x7FFFFFFFULL) | (next & 0x7FFFFFFFULL);
            return far ^ (y >> 1) ^ ((y & 1) ? 0xB5026F5AA96619E9ULL : 0);
        }

        /** Twist words kM..kN-1, which read the already twisted lower half. */
        void
        twistUpper()
        {
            for (size_t k = kM; k + 1 < kN; ++k) {
                x_[k] = twist(x_[k], x_[k + 1], x_[k - kM]);
            }
            x_[kN - 1] = twist(x_[kN - 1], x_[0], x_[kM - 1]);
        }

        /** Make x_[next_] the next output (called when next_ == ready_). */
        void
        refill()
        {
            if (ready_ < kM) {
                // Draw j of a fresh engine: extend the seeding chain to
                // word j + kM, then twist word j from init words alone.
                const size_t j = ready_;
                for (; init_ <= j + kM; ++init_) {
                    const uint64_t prev = x_[init_ - 1];
                    x_[init_] = 6364136223846793005ULL * (prev ^ (prev >> 62))
                                + init_;
                }
                x_[j] = twist(x_[j], x_[j + 1], x_[j + kM]);
                ready_ = j + 1;
            } else if (ready_ < kN) {
                // Draw kM: draw kM-1 wrote the last init word, so finish
                // the first twist.
                twistUpper();
                ready_ = kN;
            } else {
                for (size_t k = 0; k < kM; ++k) {
                    x_[k] = twist(x_[k], x_[k + 1], x_[k + kM]);
                }
                twistUpper();
                next_ = 0;
            }
        }

        uint64_t x_[kN];     ///< x_[init_..] are not yet written
        size_t init_ = 1;    ///< seeding-chain words written so far
        size_t ready_ = 0;   ///< x_[0, ready_) are twisted for this pass
        size_t next_ = 0;    ///< index of the next output word
    };

  public:
    /** Construct with an explicit seed (no default: determinism by design). */
    explicit Rng(uint64_t seed) : engine_(seed) {}

    /**
     * Counter-based sub-stream: the source for stream `stream` of a run
     * seeded with `seed`. A stream's state depends only on (seed, stream)
     * — never on how many draws other streams consumed — so a parallel
     * shot loop that gives shot i stream i is deterministic regardless of
     * thread count or scheduling.
     */
    static Rng
    forStream(uint64_t seed, uint64_t stream)
    {
        return Rng(splitmix64(seed + 0x9E3779B97F4A7C15ULL * stream));
    }

    /** Uniform double in [0, 1). */
    double
    uniform()
    {
        return std::uniform_real_distribution<double>(0.0, 1.0)(engine_);
    }

    /** Uniform double in [lo, hi). */
    double
    uniform(double lo, double hi)
    {
        return std::uniform_real_distribution<double>(lo, hi)(engine_);
    }

    /** Standard normal sample. */
    double
    normal()
    {
        return std::normal_distribution<double>(0.0, 1.0)(engine_);
    }

    /** Uniform integer in [0, n). Requires n > 0. */
    uint64_t
    index(uint64_t n)
    {
        return std::uniform_int_distribution<uint64_t>(0, n - 1)(engine_);
    }

    /** Bernoulli trial with success probability p. */
    bool
    bernoulli(double p)
    {
        return std::bernoulli_distribution(p)(engine_);
    }

    /**
     * Sample an index from an unnormalized non-negative weight vector.
     * Returns weights.size()-1 if rounding pushes the draw past the end.
     */
    size_t
    discrete(const std::vector<double>& weights)
    {
        double total = 0.0;
        for (double w : weights) total += w;
        double draw = uniform() * total;
        double acc = 0.0;
        for (size_t i = 0; i < weights.size(); ++i) {
            acc += weights[i];
            if (draw < acc) return i;
        }
        return weights.empty() ? 0 : weights.size() - 1;
    }

  private:
    Engine engine_;
};

} // namespace qa

#endif // QA_COMMON_RNG_HPP
