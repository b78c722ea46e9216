/**
 * @file
 * Field visitors for configuration structs.
 *
 * A config struct names each of its fields once, in a static
 * forEachField(v) that calls v(name, &Struct::field, options...).  An
 * option is either sim::passiveField (the field never shapes simulated
 * behaviour) or a const member function whose result stands for the
 * field (VmSpec counts its switch as on()).  driver::configFingerprint
 * is a forEachLeafField walk, so a visited field needs no other line.
 */

#ifndef SIM_FIELDS_HH
#define SIM_FIELDS_HH

#include <string>
#include <type_traits>

namespace sim {

/** Field option: passive observability, never fingerprinted. */
inline constexpr struct PassiveField {} passiveField{};

/** True when the options of a forEachField call mark it passive. */
template <class... Options>
inline constexpr bool isPassive =
    (std::is_same_v<Options, PassiveField> || ...);

/** A struct that names its fields through a static forEachField. */
template <class T>
concept FieldVisited = requires {
    T::forEachField([](const char *, auto, auto...) {});
};

/**
 * Call fn(owner, path, member, options...) for every leaf field of
 * @p s.  Fields of a visited sub-struct that is not passive are walked
 * in place, with "outer.inner" paths.
 */
template <class S, class Fn>
void
forEachLeafField(S &s, Fn &&fn, const std::string &prefix = "")
{
    std::remove_const_t<S>::forEachField(
        [&](const char *name, auto member, auto... options) {
            using F = std::remove_cvref_t<decltype(s.*member)>;
            if constexpr (FieldVisited<F> && !isPassive<decltype(options)...>)
                forEachLeafField(s.*member, fn, prefix + name + ".");
            else
                fn(s, prefix + name, member, options...);
        });
}

} // namespace sim

#endif // SIM_FIELDS_HH
